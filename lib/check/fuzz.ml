module Scenario = Vw_core.Scenario

type config = {
  runs : int;
  seed : int;
  shrink : bool;
  save_failing : string option;
  defect : Oracles.defect;
  progress_every : int;
  jobs : int;
  chunk : int option;
  journal : string option;
}

let default_config =
  {
    runs = 200;
    seed = Vw_util.Prng.run_seed ();
    shrink = false;
    save_failing = None;
    defect = Oracles.No_defect;
    progress_every = 50;
    jobs = 1;
    chunk = None;
    journal = None;
  }

type found = {
  run_index : int;
  case_seed : int;
  case : Gen.case;
  failure : Oracles.failure;
  minimized : Gen.case option;
  shrink_runs : int;
  sim_s : float option;
  tables_digest : string;
}

type summary = { runs_done : int; found : found option }

type tally = {
  mutable stopped : int;
  mutable timed_out : int;
  mutable ran_to_limit : int;
  mutable with_errors : int;
  mutable truncated : int;
}

let record_outcome tally (o : Runner.outcome) =
  (match o.Runner.o_result with
  | Ok r -> (
      if r.Scenario.errors <> [] then tally.with_errors <- tally.with_errors + 1;
      match r.Scenario.outcome with
      | Scenario.Stopped -> tally.stopped <- tally.stopped + 1
      | Scenario.Timed_out -> tally.timed_out <- tally.timed_out + 1
      | Scenario.Ran_to_limit -> tally.ran_to_limit <- tally.ran_to_limit + 1)
  | Error _ -> ());
  if o.Runner.o_truncated then tally.truncated <- tally.truncated + 1

(* the (original, minimized) reproducer paths, or [Error] when [dir] or a
   file in it cannot be written *)
let save_reproducer ?origin dir ~case ~minimized =
  let write name contents =
    let path = Filename.concat dir name in
    Out_channel.with_open_text path (fun oc -> output_string oc contents);
    path
  in
  match
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let orig =
      write
        (Printf.sprintf "case-%d.fsl" case.Gen.seed)
        (Gen.to_fsl ?origin case)
    in
    ( orig,
      Option.map
        (fun m ->
          write
            (Printf.sprintf "case-%d-min.fsl" case.Gen.seed)
            (Gen.to_fsl ?origin m))
        minimized )
  with
  | saved -> Ok saved
  | exception Sys_error e -> Error e

let run_one ~defect case =
  match Runner.run case with
  | Error e ->
      ( None,
        Some
          {
            Oracles.oracle = "generates_valid";
            detail = Printf.sprintf "generated script rejected: %s" e;
          } )
  | Ok o -> (Some o, Oracles.check ~defect o)

(* simulated seconds the case ran, and the digest of its tables ("" when
   the script did not compile) *)
let sim_s_of outcome =
  Option.bind outcome (fun (o : Runner.outcome) ->
      match o.Runner.o_result with
      | Ok r -> Some (Vw_sim.Simtime.to_sec r.Scenario.duration)
      | Error _ -> None)

let tables_digest_of = function
  | Some o -> Vw_report.Journal.digest_of_tables o.Runner.o_tables
  | None -> ""

(* the journal clusters crashes by exception constructor, not by the full
   (address-bearing) message *)
let journal_detail (failure : Oracles.failure) =
  if String.equal failure.Oracles.oracle "worker_crash" then
    let msg = failure.Oracles.detail in
    let prefix = "job raised: " in
    let plen = String.length prefix in
    let msg =
      if String.length msg >= plen && String.sub msg 0 plen = prefix then
        String.sub msg plen (String.length msg - plen)
      else msg
    in
    Vw_report.Journal.exn_constructor msg
  else failure.Oracles.detail

let report_failure ppf cfg f =
  Format.fprintf ppf "@.FAILURE at run %d (case seed %d)@." f.run_index
    f.case_seed;
  Format.fprintf ppf "oracle: %s@.detail: %s@." f.failure.Oracles.oracle
    f.failure.Oracles.detail;
  let defect_flag =
    match cfg.defect with
    | Oracles.No_defect -> ""
    | d -> Printf.sprintf " --defect %s" (Oracles.defect_to_string d)
  in
  Format.fprintf ppf "replay: vwctl fuzz --runs 1 --seed %d%s@." f.case_seed
    defect_flag;
  Format.fprintf ppf "--- failing case (size %d) ---@.%s" (Gen.size f.case)
    (Gen.to_fsl f.case);
  (match f.minimized with
  | Some m ->
      Format.fprintf ppf "--- minimized (size %d, %d shrink runs) ---@.%s"
        (Gen.size m) f.shrink_runs (Gen.to_fsl m)
  | None -> ());
  Format.pp_print_flush ppf ()

(* the saved (original, minimized) reproducer paths, when saving *)
let save_found ppf cfg f =
  match cfg.save_failing with
  | None -> Ok None
  | Some dir -> (
      let origin =
        {
          Gen.og_oracle = f.failure.Oracles.oracle;
          og_run_seed = cfg.seed;
          og_case_index = f.run_index;
        }
      in
      match save_reproducer ~origin dir ~case:f.case ~minimized:f.minimized with
      | Error _ as e -> e
      | Ok (orig, min_file) ->
          Format.fprintf ppf "saved: %s%s@." orig
            (match min_file with Some p -> " and " ^ p | None -> "");
          Ok (Some (orig, min_file)))

let journal_record cfg ~command ~saved f =
  let repro =
    match saved with
    | Some (orig, min_file) -> Some (Option.value min_file ~default:orig)
    | None -> None
  in
  Vw_report.Journal.v ?repro ?sim_s:f.sim_s ~tables_digest:f.tables_digest
    ~run_seed:cfg.seed ~command
    ~case:(Printf.sprintf "case-%d" f.run_index)
    ~index:f.run_index ~oracle:f.failure.Oracles.oracle ~seed:f.case_seed
    ~detail:(journal_detail f.failure) ()

let journal_append ppf cfg ~command ~saved f =
  match cfg.journal with
  | None -> ()
  | Some path -> (
      let r = journal_record cfg ~command ~saved f in
      match Vw_report.Journal.append path [ r ] with
      | Ok () ->
          Format.fprintf ppf "journal: signature %s appended to %s@."
            r.Vw_report.Journal.r_signature path
      | Error e -> Format.fprintf ppf "journal: %s@." e)

(* What one campaign job ships back: the generated case, the first failing
   oracle (if any) and this run's tally contribution. The job owns
   everything else it built (testbed, engine, recorders) — nothing mutable
   crosses the domain boundary. *)
type case_run = {
  cr_case : Gen.case;
  cr_failure : Oracles.failure option;
  cr_tally : tally;
  cr_sim_s : float option;
  cr_tables_digest : string;
}

let worker_crash_oracle = "worker_crash"

let add_tally into from =
  into.stopped <- into.stopped + from.stopped;
  into.timed_out <- into.timed_out + from.timed_out;
  into.ran_to_limit <- into.ran_to_limit + from.ran_to_limit;
  into.with_errors <- into.with_errors + from.with_errors;
  into.truncated <- into.truncated + from.truncated

let fresh_tally () =
  { stopped = 0; timed_out = 0; ran_to_limit = 0; with_errors = 0; truncated = 0 }

let case_run cfg i =
  let case = Gen.generate ~seed:((cfg.seed + i) land max_int) in
  let tally = fresh_tally () in
  let outcome, failure = run_one ~defect:cfg.defect case in
  Option.iter (record_outcome tally) outcome;
  {
    cr_case = case;
    cr_failure = failure;
    cr_tally = tally;
    cr_sim_s = sim_s_of outcome;
    cr_tables_digest = tables_digest_of outcome;
  }

let shrink_found cfg ~case ~failure =
  if cfg.shrink && failure.Oracles.oracle <> worker_crash_oracle then begin
    let m, spent =
      Shrink.minimize ~defect:cfg.defect ~oracle:failure.Oracles.oracle case
    in
    ((if Gen.size m < Gen.size case then Some m else None), spent)
  end
  else (None, 0)

let execute ?(ppf = Format.std_formatter) cfg =
  let tally = fresh_tally () in
  Format.fprintf ppf "fuzz: %d runs from seed %d, defect %s, shrink %s@."
    cfg.runs cfg.seed
    (Oracles.defect_to_string cfg.defect)
    (if cfg.shrink then "on" else "off");
  (* seed space sharded across workers; results come back in index order,
     cut at the earliest failing case, so jobs=1 and jobs=N print
     byte-identical campaigns. Shrinking stays a single job on the main
     domain. *)
  let results =
    Vw_exec.Executor.map ~jobs:cfg.jobs ?chunk:cfg.chunk
      ~stop:(function Ok cr -> cr.cr_failure <> None | Error _ -> true)
      cfg.runs (case_run cfg)
  in
  let found = ref None in
  List.iteri
    (fun i r ->
      let case_seed = (cfg.seed + i) land max_int in
      match r with
      | Error msg ->
          (* a raising job is this case's failure, with its seed for
             replay — never the campaign's; generation is deterministic,
             so the case is rebuilt for the report *)
          found :=
            Some
              {
                run_index = i;
                case_seed;
                case = Gen.generate ~seed:case_seed;
                failure =
                  {
                    Oracles.oracle = worker_crash_oracle;
                    detail = "job raised: " ^ msg;
                  };
                minimized = None;
                shrink_runs = 0;
                sim_s = None;
                tables_digest = "";
              }
      | Ok cr -> (
          add_tally tally cr.cr_tally;
          match cr.cr_failure with
          | Some failure ->
              let minimized, shrink_runs =
                shrink_found cfg ~case:cr.cr_case ~failure
              in
              found :=
                Some
                  {
                    run_index = i;
                    case_seed;
                    case = cr.cr_case;
                    failure;
                    minimized;
                    shrink_runs;
                    sim_s = cr.cr_sim_s;
                    tables_digest = cr.cr_tables_digest;
                  }
          | None ->
              if cfg.progress_every > 0 && (i + 1) mod cfg.progress_every = 0
              then Format.fprintf ppf "  %d/%d ok@." (i + 1) cfg.runs))
    results;
  let runs_done = List.length results in
  let saved =
    match !found with
    | Some f -> (
        report_failure ppf cfg f;
        match save_found ppf cfg f with
        | Error _ as e -> e
        | Ok saved ->
            journal_append ppf cfg ~command:"fuzz" ~saved f;
            Ok ())
    | None ->
        Format.fprintf ppf
          "no failures in %d runs (stopped %d, timed_out %d, ran_to_limit \
           %d, with_errors %d, truncated %d)@."
          runs_done tally.stopped tally.timed_out tally.ran_to_limit
          tally.with_errors tally.truncated;
        Ok ()
  in
  Format.pp_print_flush ppf ();
  Result.map (fun () -> { runs_done; found = !found }) saved

let replay ?(ppf = Format.std_formatter) ?journal ~defect ~shrink path =
  match
    try Ok (In_channel.with_open_bin path In_channel.input_all)
    with Sys_error e -> Error e
  with
  | Error e -> Error e
  | Ok text -> (
      match Gen.of_fsl text with
      | Error e -> Error (Printf.sprintf "%s: %s" path e)
      | Ok case ->
          let cfg =
            {
              default_config with
              runs = 1;
              seed = case.Gen.seed;
              shrink;
              defect;
              journal;
            }
          in
          Format.fprintf ppf "replaying %s (case seed %d)@." path case.Gen.seed;
          (match Gen.origin_of_fsl text with
          | Some o ->
              Format.fprintf ppf
                "origin: oracle %s, run seed %d, case index %d@."
                o.Gen.og_oracle o.Gen.og_run_seed o.Gen.og_case_index
          | None -> ());
          let outcome, failure = run_one ~defect case in
          let summary =
            match failure with
            | None ->
                Format.fprintf ppf "replay: all oracles hold@.";
                { runs_done = 1; found = None }
            | Some failure ->
                let minimized, shrink_runs =
                  if shrink then
                    let m, spent =
                      Shrink.minimize ~defect ~oracle:failure.Oracles.oracle
                        case
                    in
                    ( (if Gen.size m < Gen.size case then Some m else None),
                      spent )
                  else (None, 0)
                in
                let f =
                  {
                    run_index = 0;
                    case_seed = case.Gen.seed;
                    case;
                    failure;
                    minimized;
                    shrink_runs;
                    sim_s = sim_s_of outcome;
                    tables_digest = tables_digest_of outcome;
                  }
                in
                report_failure ppf cfg f;
                journal_append ppf cfg ~command:"replay" ~saved:None f;
                { runs_done = 1; found = Some f }
          in
          Format.pp_print_flush ppf ();
          Ok summary)

let replay_dir ?(ppf = Format.std_formatter) ?journal ~defect ~shrink dir =
  match (try Ok (Sys.readdir dir) with Sys_error e -> Error e) with
  | Error e -> Error e
  | Ok names -> (
      let files =
        Array.to_list names
        |> List.filter (fun n -> Filename.check_suffix n ".fsl")
        |> List.sort String.compare
        |> List.map (Filename.concat dir)
      in
      if files = [] then
        Error (Printf.sprintf "%s holds no .fsl reproducers" dir)
      else begin
        let total = List.length files in
        Format.fprintf ppf "replaying %d reproducers from %s@." total dir;
        let failures = ref 0 in
        let first_found = ref None in
        let err = ref None in
        List.iter
          (fun path ->
            if !err = None then
              match replay ~ppf ?journal ~defect ~shrink path with
              | Error e -> err := Some e
              | Ok s -> (
                  match s.found with
                  | Some f ->
                      incr failures;
                      if !first_found = None then first_found := Some f
                  | None -> ()))
          files;
        match !err with
        | Some e -> Error e
        | None ->
            Format.fprintf ppf "replay-dir: %d/%d reproducers failing@."
              !failures total;
            Format.pp_print_flush ppf ();
            Ok { runs_done = total; found = !first_found }
      end)

let exit_code s = match s.found with None -> 0 | Some _ -> 2
