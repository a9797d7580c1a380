open Numerics

type config = {
  params : Fluid.Params.t;
  t_end : float;
  sample_dt : float;
  initial_rate : float;
  control_delay : float;
  interval : float;
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
      200. *. float_of_int Packet.data_frame_bits /. p.Fluid.Params.capacity;
    control_channel = None;
  }

type result = {
  queue : Series.t;
  agg_rate : Series.t;
  drops : int;
  delivered_bits : float;
  utilization : float;
  messages : int;
  final_rates : float array;
}

let run cfg =
  let p = cfg.params in
  let n = p.Fluid.Params.n_flows in
  let c = p.Fluid.Params.capacity in
  let l =
    Loop.create ?channel:cfg.control_channel ~name:"E2cm" ~t_end:cfg.t_end
      ~sample_dt:cfg.sample_dt ~control_delay:cfg.control_delay ()
  in
  let messages = ref 0 in
  let rates = Array.make n cfg.initial_rate in
  (* congestion-point state: BCN sampling + an interval fair-share
     estimate from the active-flow count *)
  let active = Array.make n false in
  let fair_share = ref (c /. float_of_int n) in
  Loop.every l cfg.interval (fun _e ->
      let count = Array.fold_left (fun a b -> if b then a + 1 else a) 0 active in
      if count > 0 then fair_share := 0.95 *. c /. float_of_int count;
      Array.fill active 0 n false);
  (* the hybrid reaction law: BCN AIMD with the advertised fair share
     capping the additive increase *)
  let react flow sigma er =
    if sigma > 0. then
      rates.(flow) <-
        Float.min
          (Float.max er rates.(flow))
          (rates.(flow) +. (p.Fluid.Params.gi *. p.Fluid.Params.ru *. sigma))
    else if sigma < 0. then
      rates.(flow) <-
        Float.max 1e3
          (Float.min
             (rates.(flow) *. (1. +. (p.Fluid.Params.gd *. sigma)))
             er)
  in
  let sw = Loop.egress l p in
  (* each message carries sigma, so fault plans perturb it like BCN
     feedback; the fair share it advertises rides with the reaction *)
  Loop.sampled p sw (fun e flow sigma ->
      if sigma <> 0. then begin
        incr messages;
        let er = !fair_share in
        Loop.notifier l (fun _ _ _ -> react flow sigma er) e flow sigma
      end);
  Loop.pace l ~rates sw ~on_send:(fun i -> active.(i) <- true);
  let tr =
    Loop.trace l ~columns:2 (fun _e cols i ->
        cols.(0).(i) <- Switch.queue_bits sw;
        cols.(1).(i) <- Array.fold_left ( +. ) 0. rates)
  in
  Loop.run l;
  {
    queue = Loop.series tr 0;
    agg_rate = Loop.series tr 1;
    drops = Fifo.drops (Switch.fifo sw);
    delivered_bits = Loop.delivered l;
    utilization = Loop.delivered l /. (c *. cfg.t_end);
    messages = !messages;
    final_rates = Array.copy rates;
  }

let run_many ?jobs cfgs = Loop.run_many ~name:"E2cm" run ?jobs cfgs
