open Numerics

type config = {
  params : Fluid.Params.t;
  t_end : float;
  sample_dt : float;
  initial_rate : float;
  control_delay : float;
  interval : float;
  target_util : float;
  control_channel : Loop.control_channel option;
}

let default_config ?(t_end = 0.02) ?(sample_dt = 1e-5) (p : Fluid.Params.t) =
  {
    params = p;
    t_end;
    sample_dt;
    initial_rate = 0.3 *. Fluid.Params.equilibrium_rate p;
    control_delay = 1e-6;
    interval =
      100. *. float_of_int Packet.data_frame_bits /. p.Fluid.Params.capacity;
    target_util = 0.95;
    control_channel = None;
  }

type result = {
  queue : Series.t;
  agg_rate : Series.t;
  drops : int;
  delivered_bits : float;
  utilization : float;
  advertisements : int;
  final_rates : float array;
  convergence_time : float option;
}

let run cfg =
  if cfg.interval <= 0. then invalid_arg "Fera.run: interval <= 0";
  let p = cfg.params in
  let n = p.Fluid.Params.n_flows in
  let c = p.Fluid.Params.capacity in
  let fair = Fluid.Params.equilibrium_rate p in
  let l =
    Loop.create ?channel:cfg.control_channel ~name:"Fera" ~t_end:cfg.t_end
      ~sample_dt:cfg.sample_dt ~control_delay:cfg.control_delay ()
  in
  let advertisements = ref 0 in
  let rates = Array.make n cfg.initial_rate in
  (* per-interval measurement state *)
  let flow_bits = Array.make n 0. in
  let sw = Loop.egress l p in
  Switch.set_on_accept sw (fun _e flow ->
      flow_bits.(flow) <-
        flow_bits.(flow) +. float_of_int Packet.data_frame_bits);
  (* an advertisement carries [er], so fault plans act on ERICA
     feedback as on BCN feedback; the source jumps to it *)
  let advertise = Loop.notifier l (fun _e flow er -> rates.(flow) <- er) in
  (* the ERICA measurement/advertisement cycle *)
  Loop.every l cfg.interval (fun e ->
      let measured = Array.fold_left ( +. ) 0. flow_bits /. cfg.interval in
      let active =
        Array.fold_left (fun acc b -> if b > 0. then acc + 1 else acc) 0 flow_bits
      in
      if active > 0 then begin
        let u = cfg.target_util *. c in
        let z = Float.max 1e-9 (measured /. u) in
        let fair_share = u /. float_of_int active in
        Array.iteri
          (fun i bits ->
            if bits > 0. then begin
              let flow_rate = bits /. cfg.interval in
              let er = Float.max fair_share (flow_rate /. z) in
              incr advertisements;
              advertise e i (Float.min er c)
            end)
          flow_bits
      end;
      Array.fill flow_bits 0 n 0.);
  Loop.pace l ~rates sw;
  (* tracing + convergence detection *)
  let convergence = ref None in
  let tr =
    Loop.trace l ~columns:2 (fun e cols i ->
        cols.(0).(i) <- Switch.queue_bits sw;
        cols.(1).(i) <- Array.fold_left ( +. ) 0. rates;
        if !convergence = None then
          let all_fair =
            Array.for_all
              (fun r ->
                Float.abs (r -. (cfg.target_util *. fair)) < 0.1 *. fair)
              rates
          in
          if all_fair then convergence := Some (Engine.now e))
  in
  Loop.run l;
  {
    queue = Loop.series tr 0;
    agg_rate = Loop.series tr 1;
    drops = Fifo.drops (Switch.fifo sw);
    delivered_bits = Loop.delivered l;
    utilization = Loop.delivered l /. (c *. cfg.t_end);
    advertisements = !advertisements;
    final_rates = Array.copy rates;
    convergence_time = !convergence;
  }

let run_many ?jobs cfgs = Loop.run_many ~name:"Fera" run ?jobs cfgs
