(** Batch scenario execution — one {!Vw_exec.Executor.map} over the cases.

    "This trace filtering capability makes it possible to run through a
    large number of test cases without human intervention, a particularly
    important feature for regression testing" (paper §1). A suite is a list
    of named cases — script + workload + expectation — each run on a fresh
    testbed built from its own node table. Negative cases ([`Fail]) are
    first-class: a test that must flag an error counts as OK only when it
    does.

    State ownership: every case compiles its own tables and builds its
    own testbed (engine, PRNGs, recorders, metrics), so a suite can run on
    any number of domains; the report is reduced in case order and is
    byte-identical at every [jobs] level. *)

type case

val case :
  ?max_duration:Vw_sim.Simtime.t ->
  ?expect:[ `Pass | `Fail ] ->
  ?config:Testbed.config ->
  name:string ->
  script:string ->
  workload:(Testbed.t -> unit) ->
  unit ->
  case
(** Defaults: 60 s budget, [`Pass] expected, default testbed config. *)

type outcome = {
  o_name : string;
  o_result : (Scenario.result, string) result;
      (** [Error] = script did not compile / testbed mismatch / the worker
          running the case crashed *)
  o_expected : [ `Pass | `Fail ];
  o_ok : bool;  (** verdict matched the expectation *)
  o_tables : Vw_fsl.Tables.t option;
      (** the case's compiled tables, when it compiled *)
  o_events : Vw_obs.Event.t list;
      (** the case's flight-recorder log; [[]] unless run with
          [~observe:true] *)
  o_crash : string option;
      (** the executor's message when the case's worker raised *)
}

type report = { outcomes : outcome list; passed : int; failed : int }

val run :
  ?jobs:int ->
  ?chunk:int ->
  ?observe:bool ->
  ?seed:int ->
  ?stop_on_failure:bool ->
  case list ->
  report
(** Runs the cases in order ([jobs = 1], the default) or across [jobs]
    domains, the calling one and [jobs - 1] spawned for this run, each
    claiming [chunk] cases at a time (see {!Vw_exec.Executor.map}) — same
    report at every [jobs] and [chunk] combination. [jobs] is not clamped
    to the core count; the CLI does that where [--jobs] enters. [observe]
    enables the flight recorder on each case's testbed (events land in
    [o_events]); [seed] overrides the testbed seed of every case that
    does not carry an explicit config. With [stop_on_failure] (default
    false) the report is cut at the first mismatch in case order; cases
    beyond it are skipped (sequentially) or discarded (in parallel). A
    case whose worker raises is reported as that case failing with
    [Error "worker crashed: …"]; the rest of the suite still runs. *)

val ok : report -> bool

val outcome_detail : outcome -> string
(** One-line outcome description ("stopped, 0 errors, 1.234s" / "error:
    …"), as rendered by [pp_report]; deterministic (simulated time only). *)

val pp_report : Format.formatter -> report -> unit
