type case = {
  c_name : string;
  c_script : string;
  c_workload : Testbed.t -> unit;
  c_max_duration : Vw_sim.Simtime.t;
  c_expect : [ `Pass | `Fail ];
  c_config : Testbed.config option;
}

let case ?(max_duration = Vw_sim.Simtime.sec 60.0) ?(expect = `Pass) ?config
    ~name ~script ~workload () =
  {
    c_name = name;
    c_script = script;
    c_workload = workload;
    c_max_duration = max_duration;
    c_expect = expect;
    c_config = config;
  }

let with_seed seed c =
  match (seed, c.c_config) with
  | None, _ | _, Some _ -> c
  | Some seed, None ->
      { c with c_config = Some { Testbed.default_config with seed } }

type outcome = {
  o_name : string;
  o_result : (Scenario.result, string) result;
  o_expected : [ `Pass | `Fail ];
  o_ok : bool;
  o_tables : Vw_fsl.Tables.t option;
  o_events : Vw_obs.Event.t list;
}

type report = { outcomes : outcome list; passed : int; failed : int }

let run_case ?(observe = false) c =
  (* cached: the tables are immutable after compile (see Compile_cache),
     so concurrent cases replaying one script share a single table set *)
  match Vw_fsl.Compile_cache.parse_and_compile c.c_script with
  | Error e -> (Error e, None, [])
  | Ok tables ->
      let testbed = Testbed.of_node_table ?config:c.c_config tables in
      (* suite observers consume the whole event history (per-case coverage,
         journals), so use the analysis ring size: the default 16384 can
         wrap on long cases and silently amputate the coverage *)
      if observe then Testbed.enable_observability ~capacity:65536 testbed;
      let result =
        Scenario.run testbed ~script:c.c_script
          ~max_duration:c.c_max_duration ~workload:c.c_workload
      in
      let events = if observe then Testbed.events testbed else [] in
      if observe && Testbed.events_truncated testbed > 0 then
        Printf.eprintf
          "warning: %s: flight-recorder ring(s) wrapped (%d events dropped); \
           per-case coverage may be incomplete\n\
           %!"
          c.c_name
          (Testbed.events_dropped testbed);
      (result, Some tables, events)

let outcome_of_case ?observe c =
  let o_result, o_tables, o_events = run_case ?observe c in
  let o_ok =
    match (o_result, c.c_expect) with
    | Ok r, `Pass -> Scenario.passed r
    | Ok r, `Fail -> not (Scenario.passed r)
    | Error _, (`Pass | `Fail) -> false
  in
  {
    o_name = c.c_name;
    o_result;
    o_expected = c.c_expect;
    o_ok;
    o_tables;
    o_events;
  }

(* a worker crash is this case's failure, not the campaign's *)
let crash_outcome c msg =
  {
    o_name = c.c_name;
    o_result = Error (Printf.sprintf "worker crashed: %s" msg);
    o_expected = c.c_expect;
    o_ok = false;
    o_tables = None;
    o_events = [];
  }

let report_of_outcomes outcomes =
  {
    outcomes;
    passed = List.length (List.filter (fun o -> o.o_ok) outcomes);
    failed = List.length (List.filter (fun o -> not o.o_ok) outcomes);
  }

let run ?(jobs = 1) ?chunk ?observe ?seed ?(stop_on_failure = false) cases =
  let cases = Array.of_list (List.map (with_seed seed) cases) in
  let stop =
    if stop_on_failure then
      Some (function Ok o -> not o.o_ok | Error _ -> true)
    else None
  in
  Vw_exec.Executor.map ~jobs ?chunk ?stop (Array.length cases) (fun i ->
      outcome_of_case ?observe cases.(i))
  |> List.mapi (fun i r ->
         match r with Ok o -> o | Error msg -> crash_outcome cases.(i) msg)
  |> report_of_outcomes

let ok report = report.failed = 0

let outcome_detail o =
  match o.o_result with
  | Error e -> "error: " ^ e
  | Ok r ->
      Printf.sprintf "%s, %d errors, %.3fs"
        (Scenario.outcome_to_string r.Scenario.outcome)
        (List.length r.Scenario.errors)
        (Vw_sim.Simtime.to_sec r.Scenario.duration)

let pp_report ppf report =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun o ->
      Format.fprintf ppf "%-6s %-32s (expected %s; %s)@,"
        (if o.o_ok then "OK" else "FAILED")
        o.o_name
        (match o.o_expected with `Pass -> "pass" | `Fail -> "fail")
        (outcome_detail o))
    report.outcomes;
  Format.fprintf ppf "%d passed, %d failed@]" report.passed report.failed
