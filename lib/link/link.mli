(** Point-to-point full-duplex Ethernet links, and the medium model every
    medium shares.

    A link has two endpoints, and each direction is an independent channel.
    Frames are {!Vw_net.Eth.t} values, serialized at the configured
    bandwidth over their {!Vw_net.Eth.size}; the receiver gets the sent
    value after the propagation delay, unless it is lost. A lost frame
    models a MAC bit error: the receiving NIC discards a frame whose FCS
    fails, so a bit error never delivers a damaged frame. {!Bus} reuses
    this module's {!config}, {!tx_time} and loss draw ({!lost}) for its
    shared CSMA/CD channel. *)

type config = {
  bandwidth_bps : float;  (** e.g. 100e6 for the paper's 100 Mbps testbed *)
  propagation : Vw_sim.Simtime.t;
  loss_rate : float;  (** probability a frame is silently lost *)
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

(** {1 Links} *)

type t
type endpoint

val create : Vw_sim.Engine.t -> config -> t
val endpoint_a : t -> endpoint
val endpoint_b : t -> endpoint
val stats : t -> Media_stats.t

val send : endpoint -> Vw_net.Eth.t -> unit
(** Queue a frame for transmission from this endpoint. *)

val set_receive : endpoint -> (Vw_net.Eth.t -> unit) -> unit
(** Install the frame-arrival callback for this endpoint (frames sent by the
    peer). Replaces any previous callback. *)
