(** Run one FSL script with a [CONFORM] section deterministically and
    score its expectations.

    The driver is the conformance counterpart of {!Vw_core.Scenario.run}:
    compile the script, build an observed testbed from its node table,
    schedule every [INJECT] as a fine-grained host timer relative to the
    workload start (the same anchor all [EXPECT] windows are measured
    from), run the scenario, then evaluate the expectations offline with
    {!Eval} and stamp one [Expect_checked] event per verdict into the
    flight recorder so exported logs carry the conformance outcome.

    The driver keeps no frame capture: it builds its testbed with
    [trace_capacity = 1], whatever [?config] says. Verdicts come from the
    flight recorder, and nothing on the conform path reads the capture,
    so keeping every frame of a run (up to the default million) would
    only hold memory and cost time. *)

type case_result = {
  c_name : string;
  c_checked : Eval.checked list;  (** one per expectation, [xid] order *)
  c_scenario : Vw_core.Scenario.result;
  c_truncated : int;
      (** rings that wrapped — non-zero means verdicts may be unsound *)
  c_events : Vw_obs.Event.t list;
      (** the run's merged events, [Expect_checked] stamps included *)
  c_tables : Vw_fsl.Tables.t;
}

val case_ok : case_result -> bool
(** Every expectation passed (vacuously true without a CONFORM section). *)

val default_capacity : int
(** 65536 — the analysis ring size: conformance consumes the event
    history, so evicted events would silently flip verdicts. *)

val run :
  ?config:Vw_core.Testbed.config ->
  ?max_duration:Vw_sim.Simtime.t ->
  ?capacity:int ->
  ?workload:(Vw_core.Testbed.t -> unit) ->
  name:string ->
  source:string ->
  unit ->
  (case_result, string list) result
(** [run ~name ~source ()] — errors are parse / compile / CONFORM-compile
    problems (or a scenario startup failure), collected like
    {!Vw_fsl.Compile.compile}'s. *)
