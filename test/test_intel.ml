(* Campaign intelligence: failure journal, triage clustering and
   campaign-over-campaign comparison — unit tests for the vw_report
   modules plus end-to-end CLI checks of the exit-code contract and the
   jobs-independence of journal/campaign artifacts. *)

open Vw_report

(* --- journal records and signatures --- *)

let mk ?run_seed ?repro ?sim_s ?(tables_digest = "") ~oracle ~seed ~detail () =
  Journal.v ?run_seed ?repro ?sim_s ~tables_digest ~command:"fuzz"
    ~case:"case-x" ~index:0 ~oracle ~seed ~detail ()

let test_signature_ignores_digits () =
  let a =
    Journal.signature_of ~oracle:"codec_roundtrip"
      ~diagnosis:"mismatch at offset 17 after 250 packets"
  and b =
    Journal.signature_of ~oracle:"codec_roundtrip"
      ~diagnosis:"mismatch at offset 9001 after 3 packets"
  in
  Alcotest.(check string) "digit runs do not split a signature" a b;
  let c =
    Journal.signature_of ~oracle:"generates_valid"
      ~diagnosis:"mismatch at offset 17 after 250 packets"
  in
  if String.equal a c then
    Alcotest.fail "different oracles must yield different signatures";
  Alcotest.(check int) "signatures are 12 hex chars" 12 (String.length a)

let test_normalize () =
  Alcotest.(check string)
    "digit runs collapse" "seed # failed at #.#s"
    (Journal.normalize "seed 4281 failed at 12.250s")

let test_exn_constructor () =
  Alcotest.(check string)
    "argument stripped" "Failure"
    (Journal.exn_constructor "Failure(\"boo\")");
  Alcotest.(check string)
    "space-separated form" "Stack_overflow"
    (Journal.exn_constructor "Stack_overflow");
  Alcotest.(check string)
    "word cut at space" "Invalid_argument"
    (Journal.exn_constructor "Invalid_argument index out of bounds")

let test_crash_record () =
  let crash command msg =
    Journal.crash ~run_seed:1 ~command ~case:"c" ~index:0 ~seed:1 msg
  in
  let r1 = crash "conform" "Failure(\"probe 1\")" in
  let r2 = crash "suite" "Failure(\"probe 2\")" in
  Alcotest.(check string) "oracle" "worker_crash" r1.Journal.r_oracle;
  Alcotest.(check string) "same oracle" r1.Journal.r_oracle r2.Journal.r_oracle;
  Alcotest.(check string) "detail is the constructor" "Failure" r1.Journal.r_detail;
  Alcotest.(check string)
    "same signature" r1.Journal.r_signature r2.Journal.r_signature;
  Alcotest.(check bool)
    "another exception, another signature" false
    (String.equal r1.Journal.r_signature
       (crash "run" "Not_found").Journal.r_signature)

let test_journal_roundtrip () =
  let r =
    mk ~run_seed:42 ~repro:"repro/case-7.fsl" ~sim_s:1.25
      ~tables_digest:"abcdef0123456789" ~oracle:"codec_roundtrip" ~seed:107
      ~detail:"decoded tables differ\nsecond line is dropped" ()
  in
  Alcotest.(check string)
    "detail truncated to first line" "decoded tables differ"
    r.Journal.r_detail;
  match Json.parse (Journal.to_json r) with
  | Error e -> Alcotest.failf "journal line is not valid JSON: %s" e
  | Ok json -> (
      match Journal.of_json json with
      | Error e -> Alcotest.failf "of_json: %s" e
      | Ok r' ->
          Alcotest.(check bool) "record survives the roundtrip" true (r = r'))

let test_journal_optional_fields_roundtrip () =
  let r = mk ~oracle:"worker_crash" ~seed:3 ~detail:"Failure" () in
  match Json.parse (Journal.to_json r) with
  | Error e -> Alcotest.failf "journal line is not valid JSON: %s" e
  | Ok json -> (
      match Journal.of_json json with
      | Error e -> Alcotest.failf "of_json: %s" e
      | Ok r' ->
          Alcotest.(check bool) "absent options survive" true (r = r'))

let test_journal_append_load () =
  let path = Filename.temp_file "vw_journal" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Sys.remove path;
      let r1 = mk ~oracle:"a" ~seed:1 ~detail:"one" ()
      and r2 = mk ~oracle:"b" ~seed:2 ~detail:"two" ()
      and r3 = mk ~oracle:"c" ~seed:3 ~detail:"three" () in
      (match Journal.append path [ r1; r2 ] with
      | Ok () -> ()
      | Error e -> Alcotest.failf "append: %s" e);
      (match Journal.append path [ r3 ] with
      | Ok () -> ()
      | Error e -> Alcotest.failf "second append: %s" e);
      match Journal.load path with
      | Error e -> Alcotest.failf "load: %s" e
      | Ok rs ->
          Alcotest.(check bool)
            "appends accumulate in order" true
            (rs = [ r1; r2; r3 ]))

(* --- triage clustering --- *)

let records_for_triage () =
  (* three hits of one defect (distinct seeds), one of another *)
  [
    mk ~oracle:"codec_roundtrip" ~seed:10 ~detail:"differ at rule 3" ();
    mk ~oracle:"events_wellformed" ~seed:11 ~detail:"short line" ();
    mk ~oracle:"codec_roundtrip" ~seed:12 ~detail:"differ at rule 9" ();
    mk ~repro:"repro/last.fsl" ~oracle:"codec_roundtrip" ~seed:10
      ~detail:"differ at rule 1" ();
  ]

let test_triage_clusters () =
  let cs = Triage.clusters (records_for_triage ()) in
  Alcotest.(check int) "two clusters" 2 (List.length cs);
  let top = List.hd cs in
  Alcotest.(check int) "biggest cluster first" 3 top.Triage.count;
  Alcotest.(check (list int))
    "seeds distinct, first-seen order" [ 10; 12 ] top.Triage.seeds;
  Alcotest.(check (option string))
    "latest reproducer wins" (Some "repro/last.fsl") top.Triage.repro;
  let recurring = Triage.recurring cs in
  Alcotest.(check int) "rule of three" 1 (List.length recurring);
  Alcotest.(check int)
    "threshold 1 keeps both" 2
    (List.length (Triage.recurring ~threshold:1 cs))

let test_triage_json () =
  let cs = Triage.clusters (records_for_triage ()) in
  match Json.parse (Triage.to_json cs) with
  | Error e -> Alcotest.failf "triage JSON invalid: %s" e
  | Ok json ->
      Alcotest.(check (option string))
        "schema" (Some "vw-triage/1")
        (Option.bind (Json.mem "schema" json) Json.to_string)

let test_triage_promote () =
  let dir = Filename.temp_file "vw_promote" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let corpus = Filename.concat dir "corpus" in
  let repro = Filename.concat dir "repro.fsl" in
  let cleanup () =
    List.iter
      (fun d ->
        (try
           Array.iter
             (fun f -> try Sys.remove (Filename.concat d f) with _ -> ())
             (Sys.readdir d)
         with Sys_error _ -> ());
        try Sys.rmdir d with Sys_error _ -> ())
      [ corpus; dir ]
  in
  Fun.protect ~finally:cleanup (fun () ->
      let oc = open_out repro in
      output_string oc "# vw-fuzz: seed 9 max_ms 100\n";
      close_out oc;
      let recs =
        List.init 3 (fun i ->
            mk ~repro ~oracle:"codec_roundtrip" ~seed:i ~detail:"differ" ())
      in
      let recurring = Triage.recurring (Triage.clusters recs) in
      match Triage.promote ~corpus_dir:corpus recurring with
      | Error e -> Alcotest.failf "promote: %s" e
      | Ok written -> (
          match written with
          | [ (signature, dest) ] ->
              Alcotest.(check string)
                "promoted under its signature"
                (Filename.concat corpus ("sig-" ^ signature ^ ".fsl"))
                dest;
              Alcotest.(check bool) "file exists" true (Sys.file_exists dest)
          | _ -> Alcotest.fail "expected exactly one promoted file"))

(* --- compare --- *)

let side ~dir entries journal =
  let passed = List.length (List.filter (fun (_, ok, _) -> ok) entries) in
  {
    Compare.s_dir = dir;
    s_command = "suite";
    s_total = List.length entries;
    s_passed = passed;
    s_failed = List.length entries - passed;
    s_entries = entries;
    s_cover = None;
    s_journal = journal;
  }

let test_compare_regressions () =
  let old_side =
    side ~dir:"old" [ ("a.fsl", true, "ok"); ("b.fsl", true, "ok") ] []
  in
  let new_side =
    side ~dir:"new"
      [ ("a.fsl", true, "ok"); ("b.fsl", false, "RAN_TO_LIMIT") ]
      [ mk ~oracle:"expect_fail" ~seed:1 ~detail:"RAN_TO_LIMIT" () ]
  in
  let t = Compare.analyze ~old_side ~new_side () in
  Alcotest.(check int) "one entry changed" 1 (List.length t.Compare.c_entry_changes);
  (match t.Compare.c_sigs with
  | [ s ] ->
      Alcotest.(check bool)
        "signature is new" true
        (s.Compare.sd_status = Compare.New)
  | _ -> Alcotest.fail "expected one signature delta");
  let reasons = Compare.regressions t in
  Alcotest.(check int) "pass->fail + new signature" 2 (List.length reasons);
  (* the reverse direction is an improvement, not a regression *)
  let t' = Compare.analyze ~old_side:new_side ~new_side:old_side () in
  Alcotest.(check (list string)) "fixes are not regressions" []
    (Compare.regressions t');
  match t'.Compare.c_sigs with
  | [ s ] ->
      Alcotest.(check bool)
        "signature is fixed" true
        (s.Compare.sd_status = Compare.Fixed)
  | _ -> Alcotest.fail "expected one signature delta in reverse"

let test_compare_bench_regression () =
  let s = side ~dir:"d" [ ("a.fsl", true, "ok") ] [] in
  let bench =
    [
      {
        Compare.bm_metric = "classify_ns.small";
        bm_old = 100.0;
        bm_new = 160.0;
        bm_delta_pct = 60.0;
        bm_verdict = "regressed";
      };
      {
        Compare.bm_metric = "classify_ns.large";
        bm_old = 400.0;
        bm_new = 410.0;
        bm_delta_pct = 2.5;
        bm_verdict = "ok";
      };
    ]
  in
  let t = Compare.analyze ~bench ~old_side:s ~new_side:s () in
  Alcotest.(check int)
    "only the regressed metric counts" 1
    (List.length (Compare.regressions t))

let test_compare_health () =
  let all_pass = side ~dir:"d" [ ("a", true, ""); ("b", true, "") ] [] in
  let half = side ~dir:"d" [ ("a", true, ""); ("b", false, "") ] [] in
  Alcotest.(check (float 0.01)) "all passing, no cover" 100.0
    (Compare.health all_pass);
  Alcotest.(check (float 0.01)) "pass rate only" 50.0 (Compare.health half);
  Alcotest.(check (float 0.01))
    "empty campaign is healthy" 100.0
    (Compare.health (side ~dir:"d" [] []))

let test_compare_json () =
  let s = side ~dir:"d" [ ("a.fsl", true, "ok") ] [] in
  let t = Compare.analyze ~old_side:s ~new_side:s () in
  match Json.parse (Compare.to_json t) with
  | Error e -> Alcotest.failf "compare JSON invalid: %s" e
  | Ok json ->
      Alcotest.(check (option string))
        "schema" (Some "vw-compare/1")
        (Option.bind (Json.mem "schema" json) Json.to_string)

(* --- reproducer origin headers --- *)

let test_origin_roundtrip () =
  let case = Vw_check.Gen.generate ~seed:1234 in
  let origin =
    {
      Vw_check.Gen.og_oracle = "codec_roundtrip";
      og_run_seed = 99;
      og_case_index = 7;
    }
  in
  let text = Vw_check.Gen.to_fsl ~origin case in
  (match Vw_check.Gen.origin_of_fsl text with
  | Some o -> Alcotest.(check bool) "origin survives" true (o = origin)
  | None -> Alcotest.fail "origin header not found");
  match Vw_check.Gen.of_fsl text with
  | Error e -> Alcotest.failf "of_fsl with origin header: %s" e
  | Ok case' ->
      Alcotest.(check int) "seed survives" case.Vw_check.Gen.seed
        case'.Vw_check.Gen.seed

(* --- CLI: exit codes, triage/compare end to end, jobs parity --- *)

let vwctl = Filename.concat (Filename.concat ".." "bin") "vwctl.exe"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

let run_capture args =
  let out = Filename.temp_file "vw_intel_cli" ".out" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove out with Sys_error _ -> ())
    (fun () ->
      let cmd =
        Printf.sprintf "%s %s > %s 2>/dev/null" vwctl args (Filename.quote out)
      in
      let rc = Sys.command cmd in
      (rc, read_file out))

let replace ~sub ~by s =
  let slen = String.length sub in
  let buf = Buffer.create (String.length s) in
  let i = ref 0 in
  while !i <= String.length s - slen do
    if String.sub s !i slen = sub then (
      Buffer.add_string buf by;
      i := !i + slen)
    else (
      Buffer.add_char buf s.[!i];
      incr i)
  done;
  Buffer.add_string buf (String.sub s !i (String.length s - !i));
  Buffer.contents buf

let suite_dir = Filename.concat (Filename.concat ".." "scripts") "suite"

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then (
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      try Sys.rmdir path with Sys_error _ -> ())
    else try Sys.remove path with Sys_error _ -> ()

let with_tmp_dir f =
  let dir = Filename.temp_file "vw_intel" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* Exercises the whole tentpole in one flow: two campaigns (one with a
   pass->fail flip), journals, then compare in both directions. *)
let test_cli_compare_exit_codes () =
  with_tmp_dir (fun dir ->
      let src = read_file (Filename.concat suite_dir "02_udp_loss_window.fsl") in
      let dir_ok = Filename.concat dir "cases_ok"
      and dir_bad = Filename.concat dir "cases_bad" in
      Sys.mkdir dir_ok 0o755;
      Sys.mkdir dir_bad 0o755;
      write_file (Filename.concat dir_ok "00_case.fsl") src;
      write_file
        (Filename.concat dir_bad "00_case.fsl")
        (replace ~sub:"expect=pass" ~by:"expect=fail" src);
      let c_old = Filename.concat dir "c_old"
      and c_new = Filename.concat dir "c_new" in
      let rc_old, _ =
        run_capture (Printf.sprintf "suite %s --campaign-out %s" dir_ok c_old)
      in
      let rc_new, _ =
        run_capture
          (Printf.sprintf "suite %s --campaign-out %s --journal %s" dir_bad
             c_new
             (Filename.concat dir "new.jsonl"))
      in
      Alcotest.(check int) "passing suite exits 0" 0 rc_old;
      Alcotest.(check int) "failing suite exits 2" 2 rc_new;
      Alcotest.(check bool)
        "failing campaign writes failures.jsonl" true
        (Sys.file_exists (Filename.concat c_new "failures.jsonl"));
      Alcotest.(check bool)
        "passing campaign does not" false
        (Sys.file_exists (Filename.concat c_old "failures.jsonl"));
      let rc, _ =
        run_capture
          (Printf.sprintf "compare %s %s --fail-on-regression" c_old c_new)
      in
      Alcotest.(check int) "regression detected: exit 4" 4 rc;
      let rc, _ =
        run_capture
          (Printf.sprintf "compare %s %s --fail-on-regression" c_new c_old)
      in
      Alcotest.(check int) "fixes alone exit 0" 0 rc;
      let rc, out =
        run_capture (Printf.sprintf "compare %s %s --json" c_old c_new)
      in
      Alcotest.(check int) "compare --json exits 0" 0 rc;
      match Json.parse out with
      | Error e -> Alcotest.failf "compare --json invalid: %s" e
      | Ok json ->
          Alcotest.(check (option string))
            "schema" (Some "vw-compare/1")
            (Option.bind (Json.mem "schema" json) Json.to_string))

(* fuzz journal -> triage -> promote -> replay-dir: the triage workflow *)
let test_cli_triage_workflow () =
  with_tmp_dir (fun dir ->
      let journal = Filename.concat dir "fuzz.jsonl"
      and repro = Filename.concat dir "repro"
      and corpus = Filename.concat dir "corpus" in
      List.iter
        (fun seed ->
          let rc, _ =
            run_capture
              (Printf.sprintf
                 "fuzz --runs 1 --seed %d --defect codec-drop-action \
                  --save-failing %s --journal %s"
                 seed repro journal)
          in
          Alcotest.(check int)
            (Printf.sprintf "seeded defect found at seed %d: exit 2" seed)
            2 rc)
        [ 100; 200; 300 ];
      (match Journal.load journal with
      | Error e -> Alcotest.failf "journal unreadable: %s" e
      | Ok rs ->
          Alcotest.(check int) "three failures journaled" 3 (List.length rs);
          let sigs =
            List.sort_uniq String.compare
              (List.map (fun r -> r.Journal.r_signature) rs)
          in
          Alcotest.(check int)
            "one defect, one signature across seeds" 1 (List.length sigs);
          List.iter
            (fun r ->
              Alcotest.(check bool)
                "record names its reproducer" true
                (match r.Journal.r_repro with
                | Some p -> Sys.file_exists p
                | None -> false))
            rs);
      let rc, _ = run_capture (Printf.sprintf "triage %s" journal) in
      Alcotest.(check int) "triage alone exits 0" 0 rc;
      let rc, _ =
        run_capture (Printf.sprintf "triage %s --fail-on-recurring" journal)
      in
      Alcotest.(check int) "rule of three trips: exit 2" 2 rc;
      let rc, _ =
        run_capture
          (Printf.sprintf "triage %s --fail-on-recurring --threshold 4" journal)
      in
      Alcotest.(check int) "threshold 4 not reached: exit 0" 0 rc;
      let rc, _ =
        run_capture (Printf.sprintf "triage %s --promote %s" journal corpus)
      in
      Alcotest.(check int) "promote exits 0" 0 rc;
      let promoted =
        Sys.readdir corpus |> Array.to_list
        |> List.filter (fun f -> Filename.check_suffix f ".fsl")
      in
      Alcotest.(check int) "one reproducer promoted" 1 (List.length promoted);
      let text = read_file (Filename.concat corpus (List.hd promoted)) in
      (match Vw_check.Gen.origin_of_fsl text with
      | Some o ->
          Alcotest.(check string)
            "promoted file is self-describing" "codec_roundtrip"
            o.Vw_check.Gen.og_oracle
      | None -> Alcotest.fail "promoted reproducer lacks origin header");
      let rc, _ =
        run_capture
          (Printf.sprintf "fuzz --replay-dir %s --defect codec-drop-action"
             corpus)
      in
      Alcotest.(check int) "defect still present: replay-dir exits 2" 2 rc;
      let rc, _ = run_capture (Printf.sprintf "fuzz --replay-dir %s" corpus) in
      Alcotest.(check int) "defect absent: replay-dir exits 0" 0 rc)

(* the committed regression corpus must replay clean against current code *)
let test_cli_regression_corpus_clean () =
  let rc, _ = run_capture "fuzz --replay-dir regression" in
  Alcotest.(check int) "test/regression corpus replays clean" 0 rc

let test_cli_error_exit_codes () =
  let rc, _ = run_capture "triage /nonexistent/journal.jsonl" in
  Alcotest.(check int) "triage on a missing journal exits 1" 1 rc;
  let rc, _ = run_capture "compare /nonexistent/a /nonexistent/b" in
  Alcotest.(check int) "compare on missing dirs exits 1" 1 rc;
  let rc, _ = run_capture "cover quickstart --fail-under 101" in
  Alcotest.(check int) "cover --fail-under exits 3" 3 rc;
  let events = Filename.temp_file "vw_intel_cli" ".jsonl"
  and journal = Filename.temp_file "vw_intel_cli" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun f -> try Sys.remove f with Sys_error _ -> ())
        [ events; journal ])
    (fun () ->
      let rc, _ =
        run_capture
          (Printf.sprintf "run quickstart --events-capacity 0 --events %s"
             (Filename.quote events))
      in
      Alcotest.(check int) "--events-capacity 0 is a usage error (124)" 124 rc;
      let ping = "run quickstart -w udp-ping -b 640 -d 2" in
      let rc, _ =
        run_capture
          (Printf.sprintf "%s --events %s" ping (Filename.quote events))
      in
      Alcotest.(check int) "event log captured" 0 rc;
      (* an output path under a regular file cannot be created: every
         command reports it and exits 1 once its work is done *)
      let bad = Filename.quote (Filename.concat events "out") in
      List.iter
        (fun (what, args) ->
          let rc, _ = run_capture args in
          Alcotest.(check int) (what ^ " to an unwritable path exits 1") 1 rc)
        [
          ("run --metrics", Printf.sprintf "%s --metrics %s" ping bad);
          ("run --events", Printf.sprintf "%s --events %s" ping bad);
          ("run --pcap", Printf.sprintf "%s --pcap %s" ping bad);
          ("run --trace-json", Printf.sprintf "%s --trace-json %s" ping bad);
          ( "events export -o",
            Printf.sprintf "events export %s -o %s" (Filename.quote events)
              bad );
          ( "conform --html",
            Printf.sprintf "conform %s --html %s"
              (Filename.concat "conformance" "inject_probe.fsl")
              bad );
          ( "triage --html",
            Printf.sprintf "triage %s --html %s" (Filename.quote journal) bad
          );
          ( "fuzz --save-failing",
            Printf.sprintf
              "fuzz --runs 200 --seed 42 --defect skip-index-bucket \
               --save-failing %s"
              bad );
        ]);
  (* suite and conform load every case before running any: a malformed
     directive or an unreadable .fsl entry exits 1 *)
  with_tmp_dir (fun dir ->
      let src = read_file (Filename.concat suite_dir "02_udp_loss_window.fsl") in
      let bad_directive = Filename.concat dir "bad_directive"
      and unreadable = Filename.concat dir "unreadable" in
      Sys.mkdir bad_directive 0o755;
      Sys.mkdir unreadable 0o755;
      write_file
        (Filename.concat bad_directive "00_case.fsl")
        (replace ~sub:"bytes=640" ~by:"bytes=abc" src);
      Sys.mkdir (Filename.concat unreadable "00_case.fsl") 0o755;
      List.iter
        (fun (what, cases) ->
          List.iter
            (fun cmd ->
              let rc, _ = run_capture (Printf.sprintf "%s %s" cmd cases) in
              Alcotest.(check int) (cmd ^ " on " ^ what ^ " exits 1") 1 rc)
            [ "suite"; "conform" ])
        [
          ("a malformed directive", bad_directive);
          ("a directory named .fsl", unreadable);
        ]);
  (* a campaign of no cases checks nothing: --runs and --repeat below 1
     are usage errors, not an uncaught exception, a silent single run or
     a vacuous pass *)
  List.iter
    (fun args ->
      let rc, _ = run_capture args in
      Alcotest.(check int) (args ^ " is a usage error (124)") 124 rc)
    [
      "fuzz --runs=-5 --seed 1";
      "run quickstart -w udp-ping -b 640 -d 2 --repeat 0";
      "run quickstart -w udp-ping -b 640 -d 2 --repeat=-3";
      "fuzz --runs 0";
    ]

(* campaign artifacts and journals must be byte-identical at every --jobs
   level: the executor returns results in index order before the journal
   is built, and records carry no wall-clock fields *)
let test_cli_jobs_parity () =
  with_tmp_dir (fun dir ->
      let src = read_file (Filename.concat suite_dir "02_udp_loss_window.fsl") in
      let cases = Filename.concat dir "cases" in
      Sys.mkdir cases 0o755;
      write_file
        (Filename.concat cases "00_flipped.fsl")
        (replace ~sub:"expect=pass" ~by:"expect=fail" src);
      write_file (Filename.concat cases "01_ok.fsl") src;
      let go jobs =
        let out = Filename.concat dir (Printf.sprintf "campaign%d" jobs)
        and journal = Filename.concat dir (Printf.sprintf "j%d.jsonl" jobs) in
        let rc, _ =
          run_capture
            (Printf.sprintf
               "suite %s --campaign-out %s --journal %s --seed 1 --jobs %d"
               cases out journal jobs)
        in
        Alcotest.(check int)
          (Printf.sprintf "failing suite exits 2 at jobs=%d" jobs)
          2 rc;
        (out, journal)
      in
      let out1, j1 = go 1 in
      let out4, j4 = go 4 in
      List.iter
        (fun artifact ->
          let a = Filename.concat out1 artifact
          and b = Filename.concat out4 artifact in
          Alcotest.(check bool)
            (artifact ^ " written at jobs=1")
            true (Sys.file_exists a);
          Alcotest.(check bool)
            (artifact ^ " written at jobs=4")
            true (Sys.file_exists b);
          if not (String.equal (read_file a) (read_file b)) then
            Alcotest.failf "%s differs between --jobs 1 and --jobs 4" artifact)
        [ "campaign.json"; "campaign-cover.json"; "failures.jsonl"; "index.html" ];
      if not (String.equal (read_file j1) (read_file j4)) then
        Alcotest.fail "journal differs between --jobs 1 and --jobs 4")

let suite =
  [
    ( "intel.journal",
      [
        Alcotest.test_case "signature ignores embedded numbers" `Quick
          test_signature_ignores_digits;
        Alcotest.test_case "normalize collapses digit runs" `Quick
          test_normalize;
        Alcotest.test_case "exn_constructor strips arguments" `Quick
          test_exn_constructor;
        Alcotest.test_case "record roundtrips through JSON" `Quick
          test_journal_roundtrip;
        Alcotest.test_case "optional fields roundtrip when absent" `Quick
          test_journal_optional_fields_roundtrip;
        Alcotest.test_case "append accumulates, load reads back" `Quick
          test_journal_append_load;
        Alcotest.test_case "one crash, one signature in every campaign" `Quick
          test_crash_record;
      ] );
    ( "intel.triage",
      [
        Alcotest.test_case "clusters by signature, counts and seeds" `Quick
          test_triage_clusters;
        Alcotest.test_case "vw-triage/1 JSON parses" `Quick test_triage_json;
        Alcotest.test_case "recurring clusters promote to a corpus" `Quick
          test_triage_promote;
      ] );
    ( "intel.compare",
      [
        Alcotest.test_case "pass->fail and new signatures regress" `Quick
          test_compare_regressions;
        Alcotest.test_case "regressed bench metrics regress" `Quick
          test_compare_bench_regression;
        Alcotest.test_case "health blends pass rate and coverage" `Quick
          test_compare_health;
        Alcotest.test_case "vw-compare/1 JSON parses" `Quick test_compare_json;
        Alcotest.test_case "reproducer origin header roundtrips" `Quick
          test_origin_roundtrip;
      ] );
    ( "intel.cli",
      [
        Alcotest.test_case "campaign dirs, journals and compare exits" `Slow
          test_cli_compare_exit_codes;
        Alcotest.test_case "fuzz -> triage -> promote -> replay-dir" `Slow
          test_cli_triage_workflow;
        Alcotest.test_case "committed regression corpus replays clean" `Quick
          test_cli_regression_corpus_clean;
        Alcotest.test_case "error and threshold exit codes" `Quick
          test_cli_error_exit_codes;
        Alcotest.test_case "artifacts byte-identical at jobs 1 vs 4" `Slow
          test_cli_jobs_parity;
      ] );
  ]
