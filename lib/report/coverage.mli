(** FSL coverage: which parts of a script's fault space a run exercised.

    A fault-injection campaign is only as good as the fraction of the
    scripted fault space it reached, so the unit of coverage here is the
    script itself: every rule (condition [>>] actions), filter, counter and
    term of the compiled tables, scored against a flight-recorder event log
    — live from [Testbed.events] or reloaded by {!Events_io}.

    For a rule that never fired, the furthest-reached pipeline stage
    (filter match → counter change → term flip) is recovered with
    [Vw_core.Explain], pointing at the exact clause that blocked it. *)

type stage =
  | Fired
  | Term_flip  (** a term of the rule flipped, the condition never rose *)
  | Counter_change  (** a counter moved, no term flipped *)
  | Filter_match  (** a packet matched, no counter moved *)
  | Nothing  (** no event of the rule's dependency cone in the log *)

val stage_name : stage -> string
(** ["fired"], ["term_flip"], ["counter_change"], ["filter_match"],
    ["nothing"] — the identifiers used in the [vw-cover/1] schema. *)

type rule_cov = { rule : int; rule_fired : int; furthest : stage }
type filter_cov = { fid : int; fname : string; matched : int }
type counter_cov = { cid : int; cname : string; changes : int }
type term_cov = { tid : int; flips : int }

type t = {
  scenario : string;
  rules : rule_cov list;
  filters : filter_cov list;
  counters : counter_cov list;
  terms : term_cov list;
}

val analyze : Vw_fsl.Tables.t -> Vw_obs.Event.t list -> t
(** Score every rule/filter/counter/term of [tables] against the log. *)

val total_rules : t -> int
val fired_rules : t -> int

val coverage_pct : t -> float
(** Fired rules as a percentage of all rules; 100 for a script with no
    rules. This is the number [vwctl cover --fail-under] gates on. *)

val dead_filters : t -> filter_cov list
(** Filters no packet ever matched. *)

val dead_counters : t -> counter_cov list

val to_json : t -> string
(** Schema [vw-cover/1] (see docs/OBSERVABILITY.md); ends with a newline. *)

val of_json : string -> (t, string) result
(** Reload a saved [vw-cover/1] document — what [vwctl compare] does with
    each campaign's [campaign-cover.json]. Inverse of {!to_json} up to the
    derived totals, which are recomputed. *)

val pp : Format.formatter -> t -> unit
(** Human-readable coverage table, the [vwctl cover] default output. *)
