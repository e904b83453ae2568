(** Packet trace capture — the tcpdump replacement.

    The paper's motivation includes replacing "collecting tcpdump traces and
    inspecting them manually". While the FAE's analysis rules remove most of
    that need, the trace is still the ground truth tests and humans fall
    back on. Every testbed host gets a promiscuous tap at the NIC boundary;
    entries record the simulated time, the node, the direction, and the
    frame. *)

type entry = {
  time : Vw_sim.Simtime.t;
  node : string;
  dir : [ `In | `Out ];
  frame : Vw_net.Eth.t;
}

type t

val create : ?capacity:int -> unit -> t
(** [capacity] bounds the entries kept (default 1_000_000); it is a bound,
    not an allocation. The trace starts empty and grows toward the bound
    as frames arrive (64 slots, then doubling). Beyond capacity it is a
    ring: the {e oldest} entries are overwritten, so the retained window
    is always the most recent [capacity] frames and [truncated] turns
    true.
    @raise Invalid_argument if [capacity < 1]. *)

val record :
  t -> time:Vw_sim.Simtime.t -> node:string -> dir:[ `In | `Out ] ->
  Vw_net.Eth.t -> unit

val entries : t -> entry list
(** Oldest first. *)

val length : t -> int
(** Retained entries (≤ capacity). *)

val dropped : t -> int
(** Entries overwritten after the ring filled. *)

val truncated : t -> bool

val clear : t -> unit
(** Forget every entry and the drop count, and release the ring. *)

val filter : t -> (entry -> bool) -> entry list

val count : t -> ?node:string -> ?dir:[ `In | `Out ] ->
  (Vw_net.Frame_view.t -> bool) -> int
(** Count captured frames whose decoded view satisfies the predicate. *)

val pp_entry : Format.formatter -> entry -> unit
val pp : Format.formatter -> t -> unit
(** Whole trace, one line per entry, tcpdump-style. *)

val to_pcap : t -> out_channel -> unit
(** Write the retained entries as a classic libpcap capture
    (little-endian, v2.4, LINKTYPE_ETHERNET, snaplen 65535) readable by
    tcpdump/tshark/wireshark. Record timestamps count from t=0 of the
    simulation. The trace taps every node's NIC in both directions, so a
    frame that crossed the wire intact appears twice (sender's out,
    receiver's in) — exactly what a multi-port capture shows. *)
