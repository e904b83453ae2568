(** A from-scratch TCP implementation — the protocol under test in the
    paper's Section 6.1 case study.

    This is a deliberately classic Reno-style TCP modeled on what the
    paper's testbed ran (Linux 2.4.17): 3-way handshake, byte sequence
    space, cumulative acks (one ack per received data segment, no delayed
    acks), slow start and congestion avoidance with a packet-counted
    congestion window, retransmission timeout with exponential backoff and
    Karn's rule, and 3-dup-ack fast retransmit. The behaviours the FSL test
    script observes are all here:

    - dropping the SYNACK forces a SYN retransmission, after which
      [ssthresh] is 2 and [cwnd] is 1 — the paper's trick for making the
      slow-start → congestion-avoidance transition happen within a few
      packets;
    - in slow start each new ack grows [cwnd] by one segment;
    - past [ssthresh], [cwnd] grows by one segment per [cwnd] acks.

    The [broken_*] config knobs introduce the kinds of implementation bugs
    a VirtualWire analysis script is supposed to catch; they exist so the
    test suite can verify the tester. *)

type config = {
  mss : int;  (** segment payload size, default 1000 bytes *)
  initial_cwnd : int;  (** segments, default 1 *)
  initial_ssthresh : int;  (** segments, default 64 (the paper's "64KB") *)
  max_cwnd : int;  (** segments, default 128 *)
  rto_initial : Vw_sim.Simtime.t;  (** default 1 s *)
  rto_min : Vw_sim.Simtime.t;  (** default 200 ms, as in Linux *)
  rto_max : Vw_sim.Simtime.t;  (** default 60 s *)
  max_retries : int;  (** per-segment retransmissions before giving up *)
  window : int;  (** advertised receive window, bytes *)
  broken_no_congestion_avoidance : bool;
      (** bug knob: keep slow-start growth past ssthresh *)
  broken_ignore_cwnd : bool;
      (** bug knob: send limited only by the peer window *)
}

val default_config : config

type stats = {
  mutable segments_sent : int;  (** data-bearing segments, first transmission *)
  mutable segments_received : int;
  mutable retransmits : int;
  mutable timeouts : int;  (** RTO firings (including SYN) *)
  mutable fast_retransmits : int;
  mutable bytes_acked : int;
  mutable dup_acks_seen : int;
}

type state =
  | Closed
  | Syn_sent
  | Syn_rcvd
  | Established
  | Fin_wait_1
  | Fin_wait_2
  | Close_wait
  | Last_ack
  | Closing
  | Time_wait

val state_to_string : state -> string

type t
(** A connection. *)

type stack
(** Per-host TCP state (demultiplexer + connection table). *)

type listener

val attach : Vw_stack.Host.t -> stack
(** Install TCP (IP protocol 6) on a host. At most one stack per host. *)

val host : stack -> Vw_stack.Host.t

val listen :
  ?config:config -> stack -> port:int -> on_accept:(t -> unit) -> listener
(** @raise Invalid_argument if the port already has a listener. *)

val connect :
  ?config:config ->
  stack -> src_port:int -> dst:Vw_net.Ip_addr.t -> dst_port:int -> t
(** Starts the handshake immediately; use [on_established] to learn when it
    completes. *)

(** {1 Connection API} *)

val send : t -> bytes -> unit
(** Append bytes to the send buffer; they are segmentized and transmitted as
    the congestion window allows. *)

val close : t -> unit
(** Half-close: FIN is queued after any buffered data. *)

val abort : t -> unit
(** Send RST and drop the connection. *)

val on_established : t -> (unit -> unit) -> unit
val on_data : t -> (bytes -> unit) -> unit
val on_closed : t -> (unit -> unit) -> unit

(** {1 Introspection (tests, benches, the FAE's ground truth)} *)

val state : t -> state

val cwnd : t -> int
(** Congestion window, in segments. *)

val ssthresh : t -> int
(** Slow-start threshold, in segments. *)

val stats : t -> stats
val cwnd_history : t -> (Vw_sim.Simtime.t * int) list
(** Every (time, cwnd) change, oldest first. *)

val bytes_delivered : t -> int
(** In-order payload bytes handed to [on_data]. *)
