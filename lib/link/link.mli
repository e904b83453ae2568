(** Point-to-point full-duplex Ethernet links, and the medium model every
    medium shares.

    A link has two endpoints, and each direction is an independent channel.
    Frames handed to [send] are serialized at the configured bandwidth,
    experience propagation delay, and may be lost or corrupted. {!Bus}
    reuses this module's {!config}, {!tx_time} and impairment draw
    ({!lost}, then {!corrupt}) for its shared CSMA/CD channel. *)

type config = {
  bandwidth_bps : float;  (** e.g. 100e6 for the paper's 100 Mbps testbed *)
  propagation : Vw_sim.Simtime.t;
  loss_rate : float;  (** probability a frame is silently lost *)
  corrupt_rate : float;  (** probability one payload byte is flipped *)
  max_queue : int;  (** per-endpoint transmit queue bound (frames) *)
}

val default_config : config
(** 100 Mbps, 5 µs propagation, lossless, queue of 64. *)

(** {1 Medium model} *)

val tx_time : config -> int -> Vw_sim.Simtime.t
(** [tx_time config len] is the serialization time of [len] bytes, rounded
    to the nearest ns. *)

val lost : config -> Vw_util.Prng.t -> Media_stats.t -> bool
(** Draws whether a frame that finished serializing is lost; counts it in
    [dropped_loss] if so. *)

val corrupt : config -> Vw_util.Prng.t -> Media_stats.t -> bytes -> bytes
(** [corrupt config prng stats data] draws whether the surviving frame
    [data] is corrupted. If so it counts it in [corrupted] and returns a
    copy with one byte flipped (position drawn first, then the flip);
    otherwise it returns [data] itself. Empty frames draw nothing. *)

(** {1 Links} *)

type t
type endpoint

val create : Vw_sim.Engine.t -> config -> t
val endpoint_a : t -> endpoint
val endpoint_b : t -> endpoint
val stats : t -> Media_stats.t

val send : endpoint -> bytes -> unit
(** Queue a frame for transmission from this endpoint. *)

val set_receive : endpoint -> (bytes -> unit) -> unit
(** Install the frame-arrival callback for this endpoint (frames sent by the
    peer). Replaces any previous callback. *)
