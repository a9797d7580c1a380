(** Core switch with a BCN congestion point (paper §II.B, Fig. 1).

    Forwarding: bit-counted FIFO buffer drained at the egress capacity
    (store-and-forward, one packet in service at a time).

    Congestion point: arriving data frames are sampled — deterministically
    every [round(1/pm)]-th frame, or per-frame Bernoulli([pm]) for the
    sampling ablation. At a sampling instant the switch computes

    {v sigma = (q0 − q) − w·(q − q_prev_sample) v}

    and sends a BCN frame to the sampled frame's source: a negative BCN
    whenever [sigma < 0]; a positive BCN when [sigma > 0], [q < q0] and
    the frame's rate-regulator tag matches this switch's CPID (or
    unconditionally, in the fluid-faithful [positive_to_untagged] mode).

    Severe congestion: when the queue exceeds [qsc] the switch emits an
    802.3x PAUSE(on) to its upstream; a PAUSE(off) follows once the queue
    drains below the resume threshold. The egress itself can be paused by
    a downstream switch ({!set_egress_paused}), which is how congestion
    rolls back hop by hop in the PAUSE-only baseline. *)

type sampling =
  | Deterministic  (** every [round(1/pm)]-th arriving data frame *)
  | Bernoulli of Random.State.t  (** per-frame with probability [pm] *)
  | Timer of float
      (** sample the queue every fixed period, independent of arrivals —
          the literal reading of the fluid model's constant sampling
          interval [dt = 1/(pm·C)] (paper eqn (5)); feedback is addressed
          to the most recently arrived flow, so this mode is meant for
          broadcast-feedback validation runs. Requires {!start}. *)

type config = {
  cpid : int;  (** congestion point id carried in BCN frames *)
  capacity : float;  (** egress rate, bit/s *)
  buffer_bits : float;
  q0 : float;
  qsc : float;  (** PAUSE threshold; resume at [pause_resume·qsc] *)
  pause_resume : float;
      (** PAUSE(off) fires once the queue drains below
          [pause_resume·qsc]; must be in (0, 1]. The 802.1Qbb-style
          hysteresis default is 0.9. *)
  w : float;
  pm : float;
  sampling : sampling;
  positive_to_untagged : bool;
      (** send positive BCN to sources that are not yet tagged (matches
          the fluid model's always-on increase law) *)
  enable_bcn : bool;
  enable_pause : bool;
  pool : Packet.Pool.t option;
      (** when set, BCN/PAUSE frames are drawn from this pool and
          tail-dropped data frames are recycled into it; must be the
          same pool the sources allocate data frames from *)
}

val default_config : Fluid.Params.t -> cpid:int -> config
(** Deterministic sampling, [positive_to_untagged = true], BCN and PAUSE
    enabled, [pause_resume = 0.9], no pool, thresholds taken from the
    fluid parameters. *)

type stats = {
  mutable forwarded : int;
  mutable sampled : int;
  mutable bcn_positive : int;
  mutable bcn_negative : int;
  mutable pause_on : int;
  mutable pause_off : int;
}

type t

val create : config -> control_out:(Engine.t -> Packet.t -> unit) -> t
(** [control_out] receives the BCN and PAUSE frames the switch generates
    (the runner routes them to sources / the upstream hop, adding any
    propagation delay). *)

val start : t -> Engine.t -> unit
(** Arm the sampling timer (no-op unless the config uses {!Timer}). *)

val fluid_sampling_period : Fluid.Params.t -> float
(** [dt = data_frame_bits / (pm·C)] — the average sampling interval the
    fluid model assumes (eqn (5) with packet granularity). *)

val set_forward : t -> (Engine.t -> Packet.t -> unit) -> unit
(** Where served data frames go (next hop or sink). Must be set before
    the first arrival. *)

val set_on_accept : t -> (Engine.t -> int -> unit) -> unit
(** A congestion-point law other than BCN's: called with the flow of
    every data frame the queue accepts, after the BCN sampler and before
    service resumes. Default: nothing. *)

val receive : t -> Engine.t -> Packet.t -> unit
(** Data-frame arrival. BCN/PAUSE frames must not be sent here. *)

val set_egress_paused : t -> Engine.t -> bool -> unit
(** Downstream 802.3x control of this switch's egress. *)

val queue_bits : t -> float
val fifo : t -> Fifo.t
val stats : t -> stats
val config : t -> config

val upstream_paused : t -> bool
(** Whether this switch currently holds its upstream in PAUSE. *)

(** {1 Fault-injection hooks}

    Used by [Faultnet.Injector] to perturb a running switch; harmless to
    call directly. None of these allocate. *)

val set_capacity : t -> float -> unit
(** Retarget the egress drain rate mid-run (link capacity flap). Takes
    effect from the next service start; the frame currently in service
    finishes at the rate it started with. Raises [Invalid_argument]
    unless the new capacity is positive and finite. *)

val capacity : t -> float
(** The live egress rate ([cfg.capacity] until a flap rewrites it). *)

val set_bcn_enabled : t -> bool -> unit
(** Toggle the congestion point (blackout). While off, arriving frames
    are neither counted towards the sampling interval nor sampled, and
    a timer-driven point stops emitting. A switch configured with
    [enable_bcn = false] stays off regardless. *)

val bcn_enabled : t -> bool

val reset_congestion_point : t -> unit
(** Forget sampler state (as a rebooted congestion point would): the
    [q − q_prev_sample] term restarts from the current occupancy and the
    deterministic sampling countdown restarts. *)
