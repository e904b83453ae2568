(** Rether — the software token-passing real-time Ethernet protocol used as
    the paper's second case study (Section 6.2; Venkatramani & Chiueh,
    SIGCOMM '95).

    A control token circulates among the ring members in a fixed round-robin
    order; a node may transmit data only while holding the token. The
    implementation here covers the behaviours the paper's test script
    observes, plus the recovery machinery it exercises:

    - token frames with ethertype [0x9900] and a 16-bit opcode at payload
      offset 0: [0x0001] token, [0x0010] token-ack — the exact patterns of
      the Figure 6 filter table;
    - on passing the token, the sender waits for a token-ack and retransmits
      on timeout; after [token_transmit_attempts] total transmissions
      without an ack it declares the successor dead, {e evicts} it
      (broadcasting a membership update) and passes the token to the next
      live member — reconstructing the ring as the paper describes;
    - a watchdog regenerates the token at the lowest-MAC live member if the
      ring goes quiet (e.g. the token holder itself crashed);
    - optionally ({!config.gate_traffic}), IP egress is gated: frames queue
      while the node does not hold the token and flush on token arrival —
      Rether's medium-access regulation, which the node1↔node4 TCP stream of
      the test scenario rides on;
    - an evicted node that comes back can rejoin: it broadcasts a JOIN
      request and the current token holder re-inserts it (the protocol's
      membership extension, exercised by tests).

    Duplicate tokens (from a lost ack followed by retransmission) are
    suppressed with a token sequence number; duplicates are re-acked but not
    acted upon, preserving the single-token invariant. *)

type config = {
  ring : Vw_net.Mac.t list;  (** full ring in round-robin order *)
  token_hold : Vw_sim.Simtime.t;  (** residence time per visit; default 1 ms *)
  ack_timeout : Vw_sim.Simtime.t;  (** token-ack wait; default 20 ms *)
  token_transmit_attempts : int;
      (** total token transmissions to one successor before eviction;
          default 3, matching the Figure 6 analysis rules *)
  watchdog_timeout : Vw_sim.Simtime.t;
      (** ring-silence duration before token regeneration; default 500 ms *)
  gate_traffic : bool;  (** gate IP egress on token possession; default true *)
  max_gate_queue : int;  (** per-queue gated-frame bound; overflow is dropped *)
  cycle_budget : int;
      (** admission-control ceiling: bytes of real-time traffic one token
          cycle may carry (default 48 kB, a ~5 ms cycle at 100 Mbps with
          headroom) *)
  is_realtime : Vw_net.Eth.t -> bool;
      (** classifies gated egress frames: [true] goes to the real-time
          queue, served under this node's reservation; [false] is best
          effort. Default: nothing is real-time. *)
  broken_no_eviction : bool;
      (** bug knob: keep retransmitting the token to a dead successor
          forever instead of reconstructing the ring — the class of
          implementation fault the Figure 6 analysis script catches *)
}

val default_config : ring:Vw_net.Mac.t list -> config

type stats = {
  mutable tokens_received : int;
  mutable tokens_passed : int;  (** distinct successful hand-offs started *)
  mutable token_sends : int;  (** token frames sent, retransmissions included *)
  mutable token_retransmissions : int;
  mutable acks_sent : int;
  mutable duplicates_ignored : int;
  mutable evictions : int;  (** successors this node declared dead *)
  mutable regenerations : int;  (** tokens recreated by the watchdog *)
  mutable gated_frames : int;
  mutable gate_drops : int;
  mutable rejoins : int;  (** members re-inserted by this node *)
  mutable rt_frames : int;  (** real-time frames released under reservation *)
  mutable rt_deferred : int;
      (** queue lengths of real-time frames left waiting at cycle ends *)
}

type t

val install : ?config:config -> Vw_stack.Host.t -> t
(** Adds the ethertype handler (and the gating hook when enabled). The host
    must appear in [config.ring]. @raise Invalid_argument otherwise. *)

val start : t -> unit
(** Create the initial token at this node (call on exactly one member). *)

val rejoin : t -> unit
(** Ask to be re-inserted after an eviction (broadcasts a JOIN request). *)

(** {1 Real-time bandwidth reservation}

    Rether's raison d'etre (Venkatramani & Chiueh, SIGCOMM '95) is bandwidth
    guarantees: a session reserves transmission budget per token cycle and
    is served that budget on every token visit, ahead of any best-effort
    traffic. *)

val reserve : t -> bytes_per_cycle:int -> bool
(** Request [bytes_per_cycle] of additional real-time budget on this node;
    [false] when admission control rejects it (the node's total would
    exceed [cycle_budget]). *)

val release_reservation : t -> unit
(** Drop this node's reservation to zero. *)

val reservation : t -> int

val holds_token : t -> bool
val ring_view : t -> Vw_net.Mac.t list
(** This node's current view of live members, in ring order. *)

val stats : t -> stats

val opcode_token : int
(** The token frame's opcode, [0x0001], for trace queries. *)
