(** Testbed construction: hosts on a switched (or shared-bus) LAN with the
    VirtualWire engine installed on every node.

    This mirrors the paper's setup (§3.1, §6): host machines connected by a
    100 Mbps switch, the FIE/FAE inserted between driver and IP stack on
    each, optionally with the RLL below it. Node identities (name, MAC, IP)
    can be given explicitly or taken from a compiled script's node table —
    the latter keeps scripts and testbeds consistent by construction. *)

type topology =
  | Star  (** one switch, a point-to-point link per host (the default) *)
  | Shared_bus  (** all hosts on one half-duplex segment (hub / coax) *)

type config = {
  seed : int;
  link : Vw_link.Link.config;
  topology : topology;
  rll : Vw_rll.Rll.config option;  (** [Some _] installs RLL on every host *)
  arp : Vw_stack.Arp.config option;
      (** [Some _] resolves neighbors dynamically with ARP instead of
          installing static tables *)
  trace_capacity : int;
}

val default_config : config
(** Star of 100 Mbps full-duplex links, no RLL, seed 42. *)

type t
type node

val create : ?config:config -> (string * Vw_net.Mac.t * Vw_net.Ip_addr.t) list -> t
(** Build hosts, attach them to the topology, install a FIE on each, give
    every host a full neighbor (ARP) table, and tap every NIC into the
    shared trace. @raise Invalid_argument on duplicate names. *)

val of_node_table : ?config:config -> Vw_fsl.Tables.t -> t
(** Testbed with exactly the script's nodes. *)

val engine : t -> Vw_sim.Engine.t
val trace : t -> Trace.t
val nodes : t -> node list
val node : t -> string -> node
(** @raise Not_found *)

val name : node -> string
val host : node -> Vw_stack.Host.t
val fie : node -> Vw_engine.Fie.t
val link : node -> Vw_link.Link.t option
(** The host's uplink ([None] on a shared bus). *)

val bus : t -> Vw_link.Bus.t option
(** The shared segment, for [Shared_bus] topologies. *)

val tcp : node -> Vw_tcp.Tcp.stack
(** The node's TCP stack (attached lazily, once). *)

val run : t -> ?until:Vw_sim.Simtime.t -> unit -> unit
(** Convenience: run the simulation. *)

val process_batch :
  t -> node -> Vw_stack.Hook.point -> Vw_net.Eth.t list -> int
(** [process_batch t node point frames] feeds [frames], in order, one at a
    time through [node]'s engine ({!Vw_engine.Fie.process_one}). Each
    frame's verdict is applied immediately: [Accept] continues it through
    the rest of [node]'s hook chain (to the NIC on egress, the
    demultiplexer on ingress) with {!Vw_stack.Host.reinject}, which drops
    it if the frame's own action failed the node. Returns the number of frames processed — short of
    [List.length frames] iff a STOP report fired mid-run, or the node was
    failed when the call began or became failed (a [FAIL] action) while
    processing a frame. *)

(** {1 Observability}

    Disabled by default: every engine starts with the no-op recorder and a
    null metrics registry, so an unobserved run pays one boolean test per
    would-be event. [enable_observability] switches the whole testbed on:
    one flight recorder per node (sharing a sequence counter, so the merged
    log is totally ordered) and one metrics registry for the run. *)

val enable_observability : ?capacity:int -> t -> unit
(** Wire a recorder (a binary vw-events/2 ring) into every node's engine
    and create the run's metrics registry. [capacity] bounds each node's
    retained events (default 16384; oldest events are overwritten beyond
    it). Idempotent; survives [Fie.reset], so successive scenarios on one
    testbed keep recording. *)

val observability_enabled : t -> bool

val recorder : t -> string -> Vw_obs.Recorder.t option
(** The named node's flight recorder, if observability is on. *)

val events : t -> Vw_obs.Event.t list
(** All nodes' retained events merged by sequence number (global recording
    order). Empty when observability is off. *)

val events_binary : t -> scenario:string -> string option
(** The run's retained events as one complete [vw-events/2] binary log
    (header with the shared string table, then every node's ring blitted
    back to back — readers sort by [seq]). [None] when observability is
    off. The slots are copied as recorded, never re-encoded. *)

val events_recorded : t -> int
(** Total events ever emitted (retained + overwritten). *)

val events_dropped : t -> int

val events_truncated : t -> int
(** How many node rings wrapped (i.e. have [Recorder.truncated] set). A
    non-zero value means [events] is a suffix of the run and [Explain]
    chains may miss their roots; raise the ring capacity
    ([enable_observability ~capacity], [vwctl run --events-capacity]). *)

val metrics : t -> Vw_obs.Metrics.t option
(** The run's registry, with every engine's [stats] freshly exported into
    it: [node.<name>.<field>] per node plus [engine.<field>] totals,
    alongside the live histograms. Safe to call repeatedly. *)
