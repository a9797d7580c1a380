open Numerics

type config = {
  params : Fluid.Params.t;
  n_hot : int;
  victim_rate : float;
  t_end : float;
  sample_dt : float;
  initial_hot_rate : float;
  control_delay : float;
  enable_bcn : bool;
  enable_pause : bool;
}

let default_config ?(t_end = 0.02) ?(sample_dt = 1e-5) ?(n_hot = 10)
    ?victim_rate (p : Fluid.Params.t) =
  let fair = Fluid.Params.equilibrium_rate p in
  {
    params = p;
    n_hot;
    victim_rate =
      (match victim_rate with
      | Some r -> r
      | None -> 0.05 *. p.Fluid.Params.capacity);
    t_end;
    sample_dt;
    initial_hot_rate = 0.5 *. fair *. float_of_int p.Fluid.Params.n_flows
                       /. float_of_int (Stdlib.max 1 n_hot);
    control_delay = 1e-6;
    enable_bcn = true;
    enable_pause = true;
  }

type result = {
  core_queue : Series.t;
  edge_hot_queue : Series.t;
  victim_delivered_bits : float;
  victim_goodput : float;
  victim_offered : float;
  hot_delivered_bits : float;
  core_drops : int;
  core_pause_on : int;
  edge_pause_on : int;
  victim_paused_fraction : float;
}

let victim_scenario cfg =
  if cfg.n_hot < 1 then invalid_arg "Topology.victim_scenario: n_hot < 1";
  let p = cfg.params in
  let l =
    Loop.create ~name:"Topology" ~t_end:cfg.t_end ~sample_dt:cfg.sample_dt
      ~control_delay:cfg.control_delay ()
  in
  let e = Loop.engine l in
  let hot_delivered = ref 0. and victim_delivered = ref 0. in
  let sources = ref [||] in
  let victim_id = cfg.n_hot in
  let pause_all on e =
    Array.iter (fun s -> Source.set_paused s e on) !sources
  in
  (* Edge ports run at 4x the core speed so the core port is the
     congestion point; the edge only congests when the core PAUSEs it. *)
  let edge_port cpid ~dispatch =
    Loop.switch l
      {
        (Switch.default_config p ~cpid) with
        Switch.capacity = 4. *. p.Fluid.Params.capacity;
        enable_bcn = false;
        enable_pause = cfg.enable_pause;
      }
      ~dispatch
  in
  (* Edge switch, hot port: plain forwarder (no congestion point of its
     own) feeding the core. When ITS queue passes the PAUSE threshold it
     pauses the shared ingress link — i.e. every source. *)
  let edge_hot =
    edge_port 2 ~dispatch:(fun e pkt ->
        match pkt.Packet.kind with
        | Packet.Pause { on } -> pause_all on e
        | Packet.Bcn _ | Packet.Data _ -> ())
  in
  (* Edge switch, victim port: forwards straight to the victim sink and is
     never congested. *)
  let edge_victim = edge_port 3 ~dispatch:(fun _e _pkt -> ()) in
  Loop.sink l edge_victim ~on_deliver:(fun _e pkt ->
      victim_delivered := !victim_delivered +. float_of_int pkt.Packet.bits);
  (* Core switch: the bottleneck, runs the BCN congestion point. Its PAUSE
     frames go to the edge-hot port, not to the sources. *)
  let core =
    Loop.switch l
      {
        (Switch.default_config p ~cpid:1) with
        Switch.enable_bcn = cfg.enable_bcn;
        enable_pause = cfg.enable_pause;
      }
      ~dispatch:(fun e pkt ->
        match pkt.Packet.kind with
        | Packet.Bcn { flow; fb; cpid } ->
            Source.handle_bcn !sources.(flow) ~now:(Engine.now e) ~fb ~cpid
        | Packet.Pause { on } -> Switch.set_egress_paused edge_hot e on
        | Packet.Data _ -> ())
  in
  Loop.sink l core ~on_deliver:(fun _e pkt ->
      hot_delivered := !hot_delivered +. float_of_int pkt.Packet.bits);
  Switch.set_forward edge_hot (fun e pkt -> Switch.receive core e pkt);
  (* Sources: hot flows route to the hot port, the victim to its own. *)
  sources :=
    Array.init (victim_id + 1) (fun id ->
        let hot = id < victim_id in
        let rate = if hot then cfg.initial_hot_rate else cfg.victim_rate in
        let port = if hot then edge_hot else edge_victim in
        Source.create ~id ~initial_rate:rate
          ~max_rate:(if hot then p.Fluid.Params.capacity else cfg.victim_rate)
          ~pool:(Loop.pool l) ~gi:p.Fluid.Params.gi ~gd:p.Fluid.Params.gd
          ~ru:p.Fluid.Params.ru
          ~send:(fun e pkt -> Switch.receive port e pkt)
          ());
  Array.iter (fun src -> Source.start src e) !sources;
  let victim = !sources.(victim_id) in
  let paused_samples = ref 0 in
  let tr =
    Loop.trace l ~columns:2 (fun _e cols i ->
        cols.(0).(i) <- Switch.queue_bits core;
        cols.(1).(i) <- Switch.queue_bits edge_hot;
        if Source.is_paused victim then incr paused_samples)
  in
  Loop.run l;
  let m = Loop.samples tr in
  {
    core_queue = Loop.series tr 0;
    edge_hot_queue = Loop.series tr 1;
    victim_delivered_bits = !victim_delivered;
    victim_goodput = !victim_delivered /. cfg.t_end;
    victim_offered = cfg.victim_rate;
    hot_delivered_bits = !hot_delivered;
    core_drops = Fifo.drops (Switch.fifo core);
    core_pause_on = (Switch.stats core).Switch.pause_on;
    edge_pause_on = (Switch.stats edge_hot).Switch.pause_on;
    victim_paused_fraction =
      (if m = 0 then 0. else float_of_int !paused_samples /. float_of_int m);
  }
