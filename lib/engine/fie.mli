(** The Fault Injection and Analysis Engine (FIE/FAE) of Sections 3.3 & 5.2.

    One engine installs per testbed host, as a pair of hooks at priority
    {!Vw_stack.Hook.priority_virtualwire} — between the IP stack and the RLL
    / NIC, the position the paper implements with Netfilter. The engine is
    idle until it receives the INIT control message (the six tables) and
    START.

    Per-packet flow (Figure 4b): classify against the filter table
    (first match wins) → update the event counters this node observes →
    re-evaluate affected terms → re-evaluate affected conditions →
    execute triggered actions. Counter-value and term-status changes
    propagate to remote nodes over the control plane.

    Frames reach that pipeline one way, through the hook handlers: the
    installed hooks call them, and so does {!process_one} for injected
    frames.
    The classification step dispatches through the classification index
    that {!Vw_fsl.Tables.compile} builds at INIT and matches the frame in
    place (no serialization); observers and armed faults are precomputed
    per (hook point, filter id) at INIT, so a packet only touches the
    candidates that could apply to it. See DESIGN.md, "Per-packet fast
    path".

    Rule semantics (DESIGN.md §5): condition evaluation is {e snapshot,
    edge-triggered} — within a cascade round all affected conditions are
    evaluated against the same state, then every condition that rose
    false→true fires, then the resulting counter changes seed the next
    round (bounded; overflow is reported as a scenario error). Fault
    actions are {e level-armed}: a DROP/DELAY/REORDER/DUP/MODIFY applies to
    every matching packet while its condition holds — including the packet
    whose arrival made it true.

    The FAE is not separate code: FLAG_ERROR and STOP are ordinary actions
    whose reports travel to the control node. *)

type report =
  | Stop_report of { nid : int }
  | Error_report of { nid : int; rule : int }

type stats = {
  mutable packets_inspected : int;  (** frames seen by the hooks *)
  mutable packets_matched : int;  (** frames that matched a filter *)
  mutable filters_scanned : int;
      (** filter candidates actually tested by the indexed classifier —
          the denominator of the per-packet scan cost *)
  mutable index_hits : int;
      (** packets whose discriminating field selected a bucket *)
  mutable index_misses : int;  (** packets that scanned the fallback only *)
  mutable counter_updates : int;
  mutable terms_evaluated : int;
  mutable conditions_evaluated : int;
  mutable actions_executed : int;
  mutable control_sent : int;
  mutable control_received : int;
  mutable faults_drop : int;
  mutable faults_delay : int;
  mutable faults_reorder : int;  (** packets buffered for reordering *)
  mutable faults_dup : int;
  mutable faults_modify : int;
  mutable cascade_overflows : int;
}

type t

val install : Vw_stack.Host.t -> t
(** Add the engine hooks. The engine stays transparent (accepts everything)
    until initialized. *)

val uninstall : t -> unit

val host : t -> Vw_stack.Host.t

val init_local :
  t -> controller_nid:int -> Vw_fsl.Tables.t -> (unit, string) result
(** Initialize directly (the control node does this for its own engine; the
    others get the INIT control frame). Fails if this host's MAC is not in
    the node table — such a host simply does not participate (§3.1). *)

val start_local : t -> unit
(** Fire the scenario's initially-true rules (the control node's local
    equivalent of the START frame). *)

val reset : t -> unit
(** Forget tables and run-time state; the engine goes transparent again.
    Lets one testbed run many scenarios (regression testing). *)

val my_nid : t -> int option
val stats : t -> stats

val stats_fields : stats -> (string * int) list
(** Every stats field as a [(name, value)] pair, declaration order — the
    single source for [--stats], the metrics registry export, and tests
    that assert nothing was forgotten. *)

(** {1 Observability}

    The engine itself allocates no recorder: it starts with
    {!Vw_obs.Recorder.null} and {!Vw_obs.Metrics.null}-equivalent handles,
    so an uninstrumented run pays one boolean test per would-be event.
    [Vw_core.Testbed.enable_observability] wires real sinks in. *)

val set_observability :
  t -> recorder:Vw_obs.Recorder.t -> metrics:Vw_obs.Metrics.t -> unit
(** Install the flight-recorder sink and register this engine's histograms
    (cascade depth, filters scanned per packet, DELAY/REORDER queue
    occupancy, control fan-out per cascade) in [metrics]. Call before or
    after INIT; the recorder learns the node id at INIT either way. *)

val counter_value : t -> string -> int option
(** This node's view of a counter's value (authoritative for owned
    counters, last-received for remote ones). *)

val counters : t -> (string * int * bool) list
(** Every counter's (name, this node's view of its value, enabled flag) —
    the post-run dump a tester reads first. Empty before INIT. *)

val term_status : t -> int -> bool option
(** This node's view of term [tid]'s status (owner-evaluated locally,
    last-received for subscribers). [None] before INIT or out of range.
    Used by the convergence oracle in [vw_check]. *)

val last_match_time : t -> Vw_sim.Simtime.t option
(** When a packet last matched a filter here — scenario inactivity is
    judged on this. *)

val set_report_handler : t -> (report -> unit) -> unit
(** Install on the control node's engine: receives local and remote
    STOP/FLAG_ERROR reports. *)

val send_control : t -> dst_nid:int -> Control.msg -> unit
(** Exposed for the controller (which shares the engine's node table) and
    for tests. Local destinations are processed synchronously. *)

(** {1 Direct entry} *)

val process_one : t -> Vw_stack.Hook.point -> Vw_net.Eth.t -> Vw_stack.Hook.verdict
(** Run one frame through the engine's handler for [point], control frames
    included — byte-for-byte the installed hook behaviour. The caller
    applies the verdict. *)

(** {1 Processing-cost model}

    On the paper's testbed the engine consumes real CPU per packet — the
    linear filter scan and the table updates are exactly what Figure 8
    measures. A simulation processes packets in zero simulated time, so to
    reproduce that experiment the engine can charge a configurable cost per
    inspected packet:

    [base + per_filter × filters_scanned + per_action × actions_fired]

    The charge is applied by withholding the packet for that long before it
    continues down/up the stack. The default is no model (fully
    transparent), which every functional test uses. *)

type cost_model = {
  cost_base : Vw_sim.Simtime.t;
  cost_per_filter : Vw_sim.Simtime.t;  (** per filter-table entry scanned *)
  cost_per_action : Vw_sim.Simtime.t;  (** per action executed for this packet *)
}

val set_cost_model : t -> cost_model option -> unit
