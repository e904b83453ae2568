(** Per-node flight recorder: a bounded ring buffer of events.

    One recorder installs per testbed node (see
    [Vw_core.Testbed.enable_observability]); all recorders of a run share
    one sequence counter, so merging per-node logs by [seq] recovers the
    global order in which events were recorded.

    {b One sink.} Each event is encoded straight into a preallocated
    [Bytes] ring as a fixed 48-byte [vw-events/2] slot ({!Binlog}) — no
    per-event allocation, which is what makes always-on recording
    affordable at engine speed (see [bench micro]'s [obs_ablation]).
    When the ring is full the oldest event is overwritten and counted in
    {!dropped}. {!events} decodes the retained slots back into typed
    events; JSONL is an export of them ([vwctl events export]).

    {b Zero cost when disabled.} {!null} is a permanently-disabled no-op
    sink; the engine guards every emission site with {!enabled}, so an
    uninstrumented run does exactly one immediate boolean test per
    would-be event and never constructs the event payload.

    {b Causal ids.} The engine marks the root of each processing context —
    a packet that matched a filter, or a control frame received off the
    wire — with a root emitter; every event emitted until the context ends
    (via {!set_cause}) carries that root's sequence number as its [cause].
    Cross-node edges are recovered offline by pairing [Control_received]
    with the [Control_sent] carrying an equal payload (see
    [Vw_core.Explain]). *)

type t

val null : t
(** The disabled sink: {!enabled} is false, every emitter is a no-op. *)

val create :
  ?capacity:int ->
  ?strings:Strtab.t ->
  node:string ->
  clock:(unit -> Vw_sim.Simtime.t) ->
  seq:int ref ->
  unit ->
  t
(** [capacity] (default 16384) bounds retained events; beyond it the
    oldest are overwritten ({!truncated} turns true, {!dropped} counts).
    The default keeps a node's ring at 768 KiB — small enough that
    steady-state recording stays in cache; raising it buys retention at
    measurable per-event cost (see the obs_ablation bench). [seq] is the
    run-shared sequence counter, [strings] the run-shared intern table
    for the binary export header (a private one is created when omitted
    — fine for single-recorder use). *)

val enabled : t -> bool

val sid : t -> int
(** This node's name id in the shared string table. *)

val set_nid : t -> int -> unit
(** Called by the engine at INIT, once the node-table id is known. *)

val emit : t -> Event.body -> int
(** Record an event under the current cause (or as its own cause if none is
    set); returns its sequence number, or [-1] when disabled. This generic
    path flattens the already-built body — the engine uses the specialized
    emitters below instead, which never build one. *)

val emit_root : t -> Event.body -> int
(** Record a root event (its own cause) and make it the current cause. *)

(** {2 Specialized no-allocation emitters}

    One per event kind, taking the payload as plain arguments so the
    hot path goes from engine state to ring bytes without
    constructing an [Event.body]. Field layouts mirror
    [Event.to_fields]; parity tests in test_obs keep them aligned.
    [emit_packet_classified] and [emit_control_received] record roots
    (and set the current cause), matching how the engine opens per-packet
    and per-control processing contexts. *)

val emit_packet_classified : t -> point:Event.point -> fid:int -> int
val emit_counter_changed : t -> cid:int -> value:int -> delta:int -> int
val emit_term_flipped : t -> tid:int -> status:bool -> int
val emit_condition_rose : t -> did:int -> int
val emit_action_fired : t -> did:int -> aid:int -> int
val emit_fault_applied : t -> did:int -> aid:int -> fault:Event.fault_kind -> int
val emit_control_sent : t -> dst_nid:int -> ctl:Event.ctl -> int
val emit_control_received : t -> ctl:Event.ctl -> int
val emit_report_raised : t -> nid:int -> rule:int option -> int

val cause : t -> int
(** The current causal context, [-1] when outside any. *)

val set_cause : t -> int -> unit
(** Restore a saved causal context ([-1] to leave it). *)

val events : t -> Event.t list
(** Retained events, oldest first, decoded from the ring. *)

val newest : t -> int -> Event.t list
(** [newest t n]: the last [n] of {!events} (all of them when fewer are
    retained), decoded without the others. *)

val append_binary : Buffer.t -> t -> unit
(** Append this recorder's retained events as raw [vw-events/2] slots,
    oldest first: the (at most two) contiguous ring regions, blitted
    wholesale. Callers write the {!Binlog.add_header} first. *)

val length : t -> int
val dropped : t -> int
(** Events overwritten after the ring filled. *)

val truncated : t -> bool
val clear : t -> unit
