type update_mode = Literal | Zoh_fluid

(* All per-frame mutable float state is grouped into an all-float record
   (flat representation): rate/bits updates on the pacing fast path then
   write floats in place instead of allocating a box per store, which is
   what keeps steady-state sending allocation-free. *)
type fstate = {
  mutable rate : float;
  mutable fb_hold : float;  (* latest feedback (Zoh_fluid mode) *)
  mutable hold_until : float;
  mutable last_integration : float;
  mutable bits : float;
}

type t = {
  id : int;
  fs : fstate;
  min_rate : float;
  max_rate : float;
  mode : update_mode;
  gi : float;
  gd : float;
  ru : float;
  send : Engine.t -> Packet.t -> unit;
  pool : Packet.Pool.t option;
  hold_timeout : float;  (* Zoh_fluid: how long a held feedback stays valid *)
  mutable rrt : int option;  (* CPID of the associated congestion point *)
  mutable paused : bool;
  mutable running : bool;
  mutable epoch : int;  (* invalidates stale pacing events after a pause *)
  mutable seq : int;
  mutable frames : int;
  (* preallocated pacing callback for the current epoch: one closure per
     (re)start, not one per frame *)
  mutable tick : Engine.t -> unit;
  (* captured from the engine in [start]: [handle_bcn] has no engine
     argument, so the probe must already be at hand there *)
  mutable probe : Telemetry.Probe.t;
}

let create ~id ~initial_rate ?(min_rate = 1e3) ?(max_rate = infinity)
    ?(mode = Zoh_fluid) ?(hold_timeout = infinity) ?pool ~gi ~gd ~ru ~send ()
    =
  if initial_rate <= 0. then invalid_arg "Source.create: initial_rate <= 0";
  if min_rate <= 0. then invalid_arg "Source.create: min_rate <= 0";
  {
    id;
    fs =
      {
        rate = Float.min (Float.max initial_rate min_rate) max_rate;
        fb_hold = 0.;
        hold_until = infinity;
        last_integration = 0.;
        bits = 0.;
      };
    min_rate;
    max_rate;
    mode;
    gi;
    gd;
    ru;
    send;
    pool;
    hold_timeout;
    rrt = None;
    paused = false;
    running = false;
    epoch = 0;
    seq = 0;
    frames = 0;
    tick = (fun _ -> ());
    probe = Telemetry.Probe.disabled;
  }

let[@inline] clamp src v = Float.min src.max_rate (Float.max src.min_rate v)

(* Zoh_fluid: integrate the fluid rate law with the held feedback from
   [last_integration] to [now]. The decrease law dr/dt = Gd·fb·r has the
   exact solution r·exp(Gd·fb·dt). *)
let[@inline] integrate_held src now =
  (* the held feedback is only trusted up to [hold_until]: the fluid model
     assumes a fresh sigma every sampling interval, so integrating a stale
     value indefinitely would let one congestion episode starve the source
     forever *)
  let upto = Float.min now src.fs.hold_until in
  let dt = upto -. src.fs.last_integration in
  if dt > 0. then begin
    let fb = src.fs.fb_hold in
    if fb > 0. then
      src.fs.rate <- clamp src (src.fs.rate +. (src.gi *. src.ru *. fb *. dt))
    else if fb < 0. then
      src.fs.rate <- clamp src (src.fs.rate *. exp (src.gd *. fb *. dt))
  end;
  src.fs.last_integration <- now

let pacing_tick src epoch e =
  if src.epoch = epoch && not src.paused then begin
    let now = Engine.now e in
    (match src.mode with
    | Zoh_fluid -> integrate_held src now
    | Literal -> ());
    let pkt =
      match src.pool with
      | Some pool ->
          Packet.Pool.alloc_data pool ~seq:src.seq ~now ~flow:src.id
            ~rrt:src.rrt
      | None -> Packet.make_data ~seq:src.seq ~now ~flow:src.id ~rrt:src.rrt
    in
    src.seq <- src.seq + 1;
    src.frames <- src.frames + 1;
    src.fs.bits <- src.fs.bits +. float_of_int Packet.data_frame_bits;
    src.send e pkt;
    (* the frame may already have been consumed and recycled by the time
       send returns, so the gap uses the constant frame size, not pkt *)
    let gap = float_of_int Packet.data_frame_bits /. src.fs.rate in
    Engine.schedule e ~delay:gap src.tick
  end

(* Bump the epoch (orphaning any still-scheduled tick) and build the one
   closure all pacing events of the new epoch share. *)
let rearm src =
  src.epoch <- src.epoch + 1;
  let epoch = src.epoch in
  src.tick <- (fun e -> pacing_tick src epoch e)

let start src e =
  if not src.running then begin
    src.running <- true;
    src.probe <- Engine.probe e;
    rearm src;
    src.fs.last_integration <- Engine.now e;
    Engine.schedule e ~delay:(Loop.stagger ~id:src.id ~rate:src.fs.rate)
      src.tick
  end

let handle_bcn src ~now ~fb ~cpid =
  (match src.mode with
  | Literal ->
      if fb > 0. then
        src.fs.rate <- clamp src (src.fs.rate +. (src.gi *. src.ru *. fb))
      else if fb < 0. then
        src.fs.rate <- clamp src (src.fs.rate *. (1. +. (src.gd *. fb)))
  | Zoh_fluid ->
      (* finish the previous hold interval, then switch to the new value *)
      integrate_held src now;
      src.fs.fb_hold <- fb;
      src.fs.hold_until <- now +. src.hold_timeout);
  Telemetry.Probe.rate_update src.probe ~t:now ~rate:src.fs.rate ~fb ~id:src.id
    ~cpid;
  if fb < 0. then src.rrt <- Some cpid

let set_paused src e on =
  if on <> src.paused then begin
    src.paused <- on;
    rearm src;
    (* a paused source neither sends nor ramps: restart the hold clock *)
    src.fs.last_integration <- Engine.now e;
    if (not on) && src.running then Engine.schedule e ~delay:0. src.tick
  end

let rate src = src.fs.rate
let id src = src.id
let tagged src = src.rrt <> None
let is_paused src = src.paused
let frames_sent src = src.frames
let bits_sent src = src.fs.bits
