type control_channel =
  Engine.t ->
  Packet.t ->
  deliver:(Engine.t -> Packet.t -> unit) ->
  drop:(Engine.t -> Packet.t -> unit) ->
  unit

(* all-float record: adding delivered bits per frame stores in place *)
type acc = { mutable bits : float }

type t = {
  engine : Engine.t;
  pool : Packet.Pool.t;
  t_end : float;
  sample_dt : float;
  control_delay : float;
  channel : control_channel option;
  delivered : acc;
  mutable seq : int;
  mutable sampler : (Engine.t -> unit) option;
}

let create ?probe ?channel ~name ~t_end ~sample_dt ~control_delay () =
  if t_end <= 0. then invalid_arg (name ^ ".run: t_end <= 0");
  if sample_dt <= 0. then invalid_arg (name ^ ".run: sample_dt <= 0");
  {
    engine = Engine.create ?probe ();
    pool = Packet.Pool.create ();
    t_end;
    sample_dt;
    control_delay;
    channel;
    delivered = { bits = 0. };
    seq = 0;
    sampler = None;
  }

let engine l = l.engine
let pool l = l.pool
let[@inline] delivered l = l.delivered.bits

let feedback l dispatch =
  let consume e pkt =
    dispatch e pkt;
    Packet.Pool.release l.pool pkt
  in
  let deliver e pkt =
    Engine.schedule e ~delay:l.control_delay (fun e -> consume e pkt)
  in
  match l.channel with
  | None -> deliver
  | Some chan ->
      let drop _e pkt = Packet.Pool.release l.pool pkt in
      fun e pkt -> chan e pkt ~deliver ~drop

(* Without a channel nothing needs to see the frame, so the reaction is
   scheduled directly: the same single event, no frame. *)
let notifier l react =
  match l.channel with
  | None ->
      fun e flow v ->
        Engine.schedule e ~delay:l.control_delay (fun e -> react e flow v)
  | Some _ ->
      let leg =
        feedback l (fun e pkt ->
            match pkt.Packet.kind with
            | Packet.Bcn { flow; fb; _ } -> react e flow fb
            | Packet.Data _ | Packet.Pause _ -> ())
      in
      fun e flow fb ->
        l.seq <- l.seq + 1;
        leg e
          (Packet.Pool.alloc_bcn l.pool ~seq:l.seq ~now:(Engine.now e) ~flow
             ~fb ~cpid:1)

let every l period f =
  let rec tick e =
    f e;
    Engine.schedule e ~delay:period tick
  in
  Engine.schedule l.engine ~delay:period tick

let switch l cfg ~dispatch =
  Switch.create
    { cfg with Switch.pool = Some l.pool }
    ~control_out:(feedback l dispatch)

let sink ?on_deliver l sw =
  Switch.set_forward sw (fun e pkt ->
      l.delivered.bits <- l.delivered.bits +. float_of_int pkt.Packet.bits;
      (match on_deliver with Some f -> f e pkt | None -> ());
      Packet.Pool.release l.pool pkt)

let egress l p =
  let sw =
    switch l
      {
        (Switch.default_config p ~cpid:1) with
        Switch.enable_bcn = false;
        enable_pause = false;
      }
      ~dispatch:(fun _ _ -> ())
  in
  sink l sw;
  sw

(* the cadence and sigma of [Switch]'s deterministic BCN sampler *)
let sampled (p : Fluid.Params.t) sw law =
  let sample_every =
    Stdlib.max 1 (int_of_float (Float.round (1. /. p.Fluid.Params.pm)))
  in
  let arrivals = ref 0 and q_old = ref 0. in
  Switch.set_on_accept sw (fun e flow ->
      incr arrivals;
      if !arrivals mod sample_every = 0 then begin
        let q = Switch.queue_bits sw in
        let dq = q -. !q_old in
        q_old := q;
        law e flow ((p.Fluid.Params.q0 -. q) -. (p.Fluid.Params.w *. dq))
      end)

let[@inline] stagger ~id ~rate =
  float_of_int Packet.data_frame_bits /. rate
  *. (float_of_int (id mod 97) /. 97.)

(* One preallocated pacing closure per source. The engine never runs an
   event past [t_end], so a source needs no horizon check of its own. *)
let pace ?on_send l ~rates sw =
  let frame = float_of_int Packet.data_frame_bits in
  for i = 0 to Array.length rates - 1 do
    let rec tick e =
      let pkt =
        Packet.Pool.alloc_data l.pool ~seq:l.seq ~now:(Engine.now e) ~flow:i
          ~rrt:None
      in
      l.seq <- l.seq + 1;
      (match on_send with Some f -> f i | None -> ());
      Switch.receive sw e pkt;
      Engine.schedule e ~delay:(frame /. rates.(i)) tick
    in
    Engine.schedule l.engine ~delay:(stagger ~id:i ~rate:rates.(i)) tick
  done

type trace = { ts : float array; cols : float array array; mutable m : int }

let trace l ~columns record =
  let n_samples = int_of_float (Float.ceil (l.t_end /. l.sample_dt)) + 1 in
  let tr =
    {
      ts = Array.make n_samples 0.;
      cols = Array.init columns (fun _ -> Array.make n_samples 0.);
      m = 0;
    }
  in
  let rec sampler e =
    if tr.m < n_samples then begin
      tr.ts.(tr.m) <- Engine.now e;
      record e tr.cols tr.m;
      tr.m <- tr.m + 1
    end;
    if Engine.now e +. l.sample_dt <= l.t_end then
      Engine.schedule e ~delay:l.sample_dt sampler
  in
  l.sampler <- Some sampler;
  tr

let samples tr = tr.m

let series tr c =
  let cut a = Array.sub a 0 tr.m in
  Numerics.Series.make (cut tr.ts) (cut tr.cols.(c))

let run l =
  (match l.sampler with
  | Some s -> Engine.schedule l.engine ~delay:0. s
  | None -> ());
  Engine.run ~until:l.t_end l.engine

(* Each run builds its own engine, pool and RNG state and shares nothing
   with its siblings, and [Parallel.Pool.map_array] is order-preserving,
   so the fan-out returns byte-identical results for any pool size. *)
let run_many ~name run ?jobs cfgs =
  if Array.length cfgs = 0 then [||]
  else begin
    let size =
      match jobs with Some j -> j | None -> Parallel.Pool.default_size ()
    in
    if size < 1 then invalid_arg (name ^ ".run_many: jobs < 1");
    if size = 1 || Array.length cfgs = 1 then Array.map run cfgs
    else
      Parallel.Pool.with_pool ~size (fun pool ->
          Parallel.Pool.map_array pool run cfgs)
  end
