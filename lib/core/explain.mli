(** Causal-chain analysis over a flight-recorder event log.

    Answers the question [vwctl explain SCRIPT --rule N] asks: {e why} did
    rule N fire — or, if it never fired, how far through the pipeline
    (filter match → counter change → term flip → condition rise) did its
    dependencies get?

    The analysis is offline: it takes the compiled tables and the merged
    event log ({!Testbed.events}) after a run. Within one node, events
    carry the sequence number of their root (packet classification or
    control receipt) as [cause]; across nodes, a [Control_received] root is
    stitched to the latest preceding [Control_sent] with an equal payload
    addressed to that node — the wire format carries no event ids, so the
    pairing is recovered here rather than shipped. *)

type t

val analyze : Vw_fsl.Tables.t -> Vw_obs.Event.t list -> t
(** Index the log (any order; sorted internally by [seq]) and pair its
    control hops ({!control_pairs}). *)

val control_pairs :
  Vw_obs.Event.t list -> (Vw_obs.Event.t * Vw_obs.Event.t) list
(** Cross-node control edges [(sent, received)]: each [Control_received]
    paired with the latest earlier [Control_sent] addressed to its node
    carrying an equal payload, in ascending receive [seq]; receives with
    no matching send are omitted. The one pairing rule, shared by causal
    chains here and the flow arrows of [Vw_report.Spans]. *)

val num_rules : Vw_fsl.Tables.t -> int

type rule_deps = {
  rule : int;
  dids : int list;  (** condition ids compiled from this rule *)
  tids : int list;  (** terms those conditions reference *)
  cids : int list;  (** counters those terms read *)
  fids : int list;  (** filters feeding those (event) counters *)
}

val rule_deps : Vw_fsl.Tables.t -> rule:int -> rule_deps
(** The rule's dependency cone, walked backwards through the tables.
    @raise Invalid_argument if [rule] is out of range. *)

type segment = Vw_obs.Event.t list
(** Root first, then the events of that causal context relevant to the
    rule, in recording order. *)

type verdict =
  | Fired of { rise : Vw_obs.Event.t; chain : segment list }
      (** [rise] is the first [Condition_rose] of the rule; [chain] runs
          origin-first, one segment per node-local causal context, adjacent
          segments linked by a control frame. *)
  | Not_fired of stage

and stage =
  | Saw_nothing  (** no event of the rule's cone appears in the log *)
  | Saw_packet of Vw_obs.Event.t
      (** a filter of the cone matched, but no counter moved *)
  | Saw_counter of Vw_obs.Event.t
      (** a counter of the cone changed, but no term flipped *)
  | Saw_term of Vw_obs.Event.t
      (** a term of the cone flipped, but the condition never rose *)

val explain : t -> rule:int -> verdict
(** @raise Invalid_argument if [rule] is out of range. *)

val pp_verdict : Vw_fsl.Tables.t -> rule:int -> Format.formatter -> verdict -> unit
(** Human-readable report: the chain (one line per event, names resolved
    against the tables) or the furthest-reached stage. *)
