(** The packet-loop skeleton every protocol shares.

    A loop owns one run's engine, frame pool, paced sources, trace
    sampler, feedback leg (optional fault channel, then the control
    delay) and the delivered-bits counter at the sinks; egress queues
    and their service are {!Switch}es built through {!switch}. A
    protocol ([Runner], [E2cm], [Fera], [Qcn], [Rcp], [Multihop],
    [Topology]) supplies only its law: what the congestion point or
    control cycle computes, and how a source reacts to feedback. *)

type control_channel =
  Engine.t ->
  Packet.t ->
  deliver:(Engine.t -> Packet.t -> unit) ->
  drop:(Engine.t -> Packet.t -> unit) ->
  unit
(** A fault channel, called when a control frame is emitted. It must
    eventually call exactly one of [deliver] (the normal leg: control
    delay, then dispatch; now or from a scheduled event) or [drop]
    (recycles the frame into the run's pool). *)

type t

val create :
  ?probe:Telemetry.Probe.t ->
  ?channel:control_channel ->
  name:string ->
  t_end:float ->
  sample_dt:float ->
  control_delay:float ->
  unit ->
  t
(** A fresh engine (carrying [probe]) and pool; [channel] sits on the
    feedback leg. Raises [Invalid_argument "<name>.run: ..."] unless
    [t_end > 0] and [sample_dt > 0]. *)

val engine : t -> Engine.t
val pool : t -> Packet.Pool.t

val delivered : t -> float
(** Bits the {!sink}s have consumed so far. *)

(** {1 Switches and feedback} *)

val switch :
  t -> Switch.config -> dispatch:(Engine.t -> Packet.t -> unit) -> Switch.t
(** A switch on the loop's pool. Its control frames take the feedback
    leg: the channel, the control delay, [dispatch], back to the pool. *)

val sink : ?on_deliver:(Engine.t -> Packet.t -> unit) -> t -> Switch.t -> unit
(** Make the switch's egress an edge of the network: each forwarded
    frame counts into {!delivered}, goes to [on_deliver], then back to
    the pool. *)

val egress : t -> Fluid.Params.t -> Switch.t
(** A plain bottleneck: a {!sink} {!switch} of the params' capacity and
    buffer with BCN and PAUSE off. *)

val sampled :
  Fluid.Params.t -> Switch.t -> (Engine.t -> int -> float -> unit) -> unit
(** [sampled p sw law] runs [law e flow sigma] at BCN's deterministic
    cadence: on every [round (1/pm)]-th frame the queue accepts, with
    its flow and [sigma = (q0 - q) - w (q - q_prev)]. *)

val notifier :
  t -> (Engine.t -> int -> float -> unit) -> Engine.t -> int -> float -> unit
(** [notifier l react e flow v] sends [v] down the feedback leg and runs
    [react e flow v] on delivery. Through a channel it travels as a
    pooled BCN frame with [fb = v], which fault plans classify by sign. *)

val every : t -> float -> (Engine.t -> unit) -> unit
(** [every l period f] runs a control cycle at [period], [2 period], ... *)

(** {1 Sources and trace} *)

val stagger : id:int -> rate:float -> float
(** Start offset of source [id] pacing at [rate]: [(id mod 97) / 97] of
    a frame time, so sources do not fire in lockstep at t = 0. *)

val pace : ?on_send:(int -> unit) -> t -> rates:float array -> Switch.t -> unit
(** One paced source per entry of [rates]: from {!stagger} on, source
    [i] calls [on_send i], sends a pooled data frame of flow [i] into the
    switch and waits a frame time at the then-current [rates.(i)]. *)

type trace

val trace :
  t -> columns:int -> (Engine.t -> float array array -> int -> unit) -> trace
(** Every [sample_dt] from t = 0 to [t_end], record the time and let
    [record e cols i] write sample [i] of each column into
    [cols.(c).(i)]. {!run} schedules it after all set-up events, so
    t = 0 frames precede sample 0. *)

val samples : trace -> int
val series : trace -> int -> Numerics.Series.t
(** Column [c] against the sample times, in fresh arrays. *)

val run : t -> unit
(** Schedule the sampler, then run the engine to [t_end]. *)

val run_many :
  name:string -> ('c -> 'r) -> ?jobs:int -> 'c array -> 'r array
(** The deterministic fan-out over a [Parallel.Pool] of [jobs] lanes
    (default {!Parallel.Pool.default_size}): results in input order,
    byte-identical for any [jobs], runs in the caller when [jobs = 1].
    Raises [Invalid_argument "<name>.run_many: jobs < 1"]. *)
