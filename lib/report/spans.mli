(** Packet-lifecycle spans: fold the flat flight-recorder event stream into
    one span per causal context — a packet classification (or control-frame
    receipt) and everything the cascade did while processing it — and
    export them in the Chrome trace-event format, viewable in Perfetto /
    [chrome://tracing].

    Mapping (documented in docs/OBSERVABILITY.md):
    - each testbed node is a {e process} ([pid], named by a metadata event);
    - each span is a complete event ([ph:"X"]) on the first free lane
      ([tid]) of its node, [ts]/[dur] in microseconds of simulated time;
    - faults applied and reports raised inside a span are thread-scoped
      instant events ([ph:"i"]);
    - a control frame crossing the wire is a flow arrow: [ph:"s"] at the
      [Control_sent] inside the sending span, [ph:"f"] at the matching
      [Control_received] root, paired by {!Vw_core.Explain.control_pairs},
      the rule [vwctl explain] stitches chains with. *)

type span = {
  root : Vw_obs.Event.t;  (** the classification / receipt opening the span *)
  steps : Vw_obs.Event.t list;  (** consequence events, ascending [seq] *)
  t_start : Vw_sim.Simtime.t;
  t_end : Vw_sim.Simtime.t;  (** time of the last consequence *)
}

val spans : Vw_obs.Event.t list -> span list
(** Group a log by causal id, ascending root [seq]. An event whose root was
    overwritten in the ring opens a span of its own (the analysis degrades,
    it does not fail). *)

val to_chrome_json : Vw_fsl.Tables.t -> Vw_obs.Event.t list -> string
(** The full trace-event JSON document ([{"traceEvents": [...]}]); names
    are resolved against [tables]. *)
