open Numerics

type config = {
  params : Fluid.Params.t;
  t_end : float;
  sample_dt : float;
  initial_rate : float;
  control_delay : float;
  alpha : float;
  beta : float;
  interval : float;
  variant : Fluid.Rcp.variant;
  control_channel : Loop.control_channel option;
  on_setup : (Engine.t -> Switch.t -> unit) option;
}

let default_config ?(t_end = 0.02) ?(sample_dt = 1e-5) (p : Fluid.Params.t) =
  {
    params = p;
    t_end;
    sample_dt;
    initial_rate = 0.3 *. Fluid.Params.equilibrium_rate p;
    control_delay = 1e-6;
    alpha = Fluid.Rcp.default_alpha;
    beta = Fluid.Rcp.default_beta;
    interval = Fluid.Rcp.default_tau;
    variant = Fluid.Rcp.By_capacity;
    control_channel = None;
    on_setup = None;
  }

type result = {
  queue : Series.t;
  agg_rate : Series.t;
  advertised : Series.t;
  drops : int;
  delivered_bits : float;
  utilization : float;
  feedbacks : int;
  final_rates : float array;
  events_processed : int;
}

let run cfg =
  let p = cfg.params in
  let n = p.Fluid.Params.n_flows in
  let c = p.Fluid.Params.capacity in
  let l =
    Loop.create ?channel:cfg.control_channel ~name:"Rcp" ~t_end:cfg.t_end
      ~sample_dt:cfg.sample_dt ~control_delay:cfg.control_delay ()
  in
  let e = Loop.engine l in
  let sw = Loop.egress l p in
  (match cfg.on_setup with Some f -> f e sw | None -> ());
  let rates = Array.make n cfg.initial_rate in
  let advertised = ref cfg.initial_rate in
  let arrived_bits = ref 0. in
  let feedbacks = ref 0 in
  (* a rate frame carries the advertised rate; its source obeys it *)
  let send_rate = Loop.notifier l (fun _e flow r -> rates.(flow) <- r) in
  Loop.every l cfg.interval (fun e ->
      (* the router knows its own (live) capacity; a flap therefore feeds
         straight into the advertised-rate law, as in the fluid model *)
      let live_c = Switch.capacity sw in
      let y = !arrived_bits /. cfg.interval in
      arrived_bits := 0.;
      let q = Switch.queue_bits sw in
      let corr =
        (cfg.alpha *. (live_c -. y)) -. (cfg.beta *. q /. cfg.interval)
      in
      let r = !advertised in
      let r' =
        match cfg.variant with
        | Fluid.Rcp.By_capacity -> r *. (1. +. (corr /. live_c))
        | Fluid.Rcp.By_load -> r +. (corr /. float_of_int n)
      in
      advertised := Float.max 1e3 (Float.min r' c);
      for i = 0 to n - 1 do
        incr feedbacks;
        send_rate e i !advertised
      done);
  (* y is measured at the ingress, drops included — the input traffic
     rate of the RCP law, not the accepted rate *)
  Loop.pace l ~rates sw ~on_send:(fun _ ->
      arrived_bits := !arrived_bits +. float_of_int Packet.data_frame_bits);
  let tr =
    Loop.trace l ~columns:3 (fun _e cols i ->
        cols.(0).(i) <- Switch.queue_bits sw;
        cols.(1).(i) <- Array.fold_left ( +. ) 0. rates;
        cols.(2).(i) <- !advertised)
  in
  Loop.run l;
  {
    queue = Loop.series tr 0;
    agg_rate = Loop.series tr 1;
    advertised = Loop.series tr 2;
    drops = Fifo.drops (Switch.fifo sw);
    delivered_bits = Loop.delivered l;
    utilization = Loop.delivered l /. (c *. cfg.t_end);
    feedbacks = !feedbacks;
    final_rates = Array.copy rates;
    events_processed = Engine.events_processed e;
  }

let run_many ?jobs cfgs = Loop.run_many ~name:"Rcp" run ?jobs cfgs
