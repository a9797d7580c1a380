open Numerics

type config = {
  params : Fluid.Params.t;
  t_end : float;
  sample_dt : float;
  initial_rate : float;
  control_delay : float;
  quant_bits : int;
  bc_limit_bits : float;
  fast_recovery_cycles : int;
  r_ai : float;
}

let default_config ?(t_end = 0.02) ?(sample_dt = 1e-5) (p : Fluid.Params.t) =
  {
    params = p;
    t_end;
    sample_dt;
    initial_rate = Fluid.Params.equilibrium_rate p;
    control_delay = 1e-6;
    quant_bits = 6;
    bc_limit_bits = 150e3 *. 8.;
    fast_recovery_cycles = 5;
    r_ai = 5e6;
  }

type result = {
  queue : Series.t;
  agg_rate : Series.t;
  drops : int;
  delivered_bits : float;
  utilization : float;
  cn_messages : int;
  final_rates : float array;
}

let quantize ~bits ~fb_max fb =
  if bits < 1 then invalid_arg "Qcn.quantize: bits < 1";
  if fb_max <= 0. then invalid_arg "Qcn.quantize: fb_max <= 0";
  let clipped = Float.max (-.fb_max) (Float.min 0. fb) in
  let levels = float_of_int ((1 lsl bits) - 1) in
  let step = fb_max /. levels in
  Float.round (clipped /. step) *. step

(* QCN reaction point: multiplicative decrease on notification, then
   byte-counter driven fast recovery / active increase. The current rate
   lives in the loop's pacing array. *)
type rp = {
  mutable target : float;
  mutable bc_count : float;  (* bits sent since last byte-counter expiry *)
  mutable cycles : int;  (* completed recovery cycles since last decrease *)
}

let run cfg =
  let p = cfg.params in
  let n = p.Fluid.Params.n_flows in
  let l =
    Loop.create ~name:"Qcn" ~t_end:cfg.t_end ~sample_dt:cfg.sample_dt
      ~control_delay:cfg.control_delay ()
  in
  let cn_messages = ref 0 in
  let fb_max = p.Fluid.Params.q0 *. (1. +. (2. *. p.Fluid.Params.w)) in
  let rates = Array.make n cfg.initial_rate in
  let rps =
    Array.init n (fun _ ->
        { target = cfg.initial_rate; bc_count = 0.; cycles = 0 })
  in
  (* fb_normalized in [0, 1]; decrease factor Gd-scaled like the BCN gain *)
  let decrease i fb_normalized =
    let rp = rps.(i) in
    rp.target <- rates.(i);
    let factor = 1. -. (0.5 *. fb_normalized) in
    rates.(i) <- Float.max 1e3 (rates.(i) *. factor);
    rp.cycles <- 0;
    rp.bc_count <- 0.
  in
  let byte_counter_expiry i =
    let rp = rps.(i) in
    if rp.cycles >= cfg.fast_recovery_cycles then
      (* active increase: probe for more bandwidth *)
      rp.target <- rp.target +. cfg.r_ai
    else rp.cycles <- rp.cycles + 1;
    rates.(i) <- Float.min p.Fluid.Params.capacity ((rates.(i) +. rp.target) /. 2.)
  in
  let sw = Loop.egress l p in
  (* a notification carries the quantized feedback [fbq] *)
  let notify =
    Loop.notifier l (fun _e flow fbq -> decrease flow (Float.abs fbq /. fb_max))
  in
  (* Fb = -(q_off + w q_delta) is BCN's sigma *)
  Loop.sampled p sw (fun e flow fb ->
      let fbq = quantize ~bits:cfg.quant_bits ~fb_max fb in
      if fbq < 0. then begin
        incr cn_messages;
        notify e flow fbq
      end);
  (* the byte counter runs as each frame leaves its source *)
  Loop.pace l ~rates sw ~on_send:(fun i ->
      let rp = rps.(i) in
      rp.bc_count <- rp.bc_count +. float_of_int Packet.data_frame_bits;
      if rp.bc_count >= cfg.bc_limit_bits then begin
        rp.bc_count <- 0.;
        byte_counter_expiry i
      end);
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
    utilization = Loop.delivered l /. (p.Fluid.Params.capacity *. cfg.t_end);
    cn_messages = !cn_messages;
    final_rates = Array.copy rates;
  }
