(* The fuzzing subsystem (lib/check) checked against itself:
   - every generated script parses, compiles, and survives the
     print→parse fixpoint and the tables codec round-trip (properties over
     seeds — generated tables, not fixtures);
   - control-plane messages round-trip through their wire encoding;
   - a clean campaign raises no oracle failure;
   - the self-check: a deliberately injected invariant break is caught
     within 200 runs and shrunk to a near-empty script;
   - campaign output is byte-for-byte deterministic. *)

module Fgen = Vw_check.Gen
module Fuzz = Vw_check.Fuzz
module Oracles = Vw_check.Oracles
module Shrink = Vw_check.Shrink
module Ast = Vw_fsl.Ast
module Tables = Vw_fsl.Tables
module Control = Vw_engine.Control

let check = Alcotest.check
let qtest = Test_seed.qtest

let null_ppf = Format.make_formatter (fun _ _ _ -> ()) (fun () -> ())

(* --- generated scripts are well-typed and round-trip everywhere --- *)

let seed_gen = QCheck.(int_bound 1_000_000)

let prop_generated_compiles =
  QCheck.Test.make ~name:"generated scripts parse, compile, print-fixpoint"
    ~count:60 seed_gen (fun seed ->
      let case = Fgen.generate ~seed in
      let printed = Ast.script_to_string case.Fgen.script in
      match Vw_fsl.Parser.parse printed with
      | Error e -> QCheck.Test.fail_reportf "re-parse failed: %s" e
      | Ok script' ->
          if Ast.script_to_string script' <> printed then
            QCheck.Test.fail_reportf "print is not a parse fixpoint";
          (match Vw_fsl.Compile.compile script' with
          | Error errs ->
              QCheck.Test.fail_reportf "compile failed: %s"
                (String.concat "; " errs)
          | Ok _ -> ());
          true)

let prop_generated_codec_roundtrip =
  QCheck.Test.make
    ~name:"tables codec round-trip on generated tables (equal + canonical)"
    ~count:60 seed_gen (fun seed ->
      let case = Fgen.generate ~seed in
      let tables =
        Vw_fsl.Compile.compile_exn case.Fgen.script
      in
      let enc = Vw_fsl.Tables_codec.to_bytes tables in
      match Vw_fsl.Tables_codec.of_bytes enc with
      | Error e -> QCheck.Test.fail_reportf "decode failed: %s" e
      | Ok dec ->
          tables = dec && Bytes.equal enc (Vw_fsl.Tables_codec.to_bytes dec))

let prop_case_serialization_roundtrip =
  QCheck.Test.make ~name:"fuzz case to_fsl/of_fsl round-trip" ~count:60
    seed_gen (fun seed ->
      let case = Fgen.generate ~seed in
      let text = Fgen.to_fsl case in
      match Fgen.of_fsl text with
      | Error e -> QCheck.Test.fail_reportf "of_fsl failed: %s" e
      | Ok case' ->
          case'.Fgen.seed = case.Fgen.seed
          && case'.Fgen.kinds = case.Fgen.kinds
          && case'.Fgen.sends = case.Fgen.sends
          && case'.Fgen.max_ms = case.Fgen.max_ms
          && Fgen.to_fsl case' = text)

(* --- control-plane wire round-trip on generated messages --- *)

let msg_gen =
  let open QCheck.Gen in
  let small_bytes =
    map Bytes.of_string (string_size ~gen:(map Char.chr (int_range 0 255)) (int_range 0 40))
  in
  oneof
    [
      map2
        (fun nid tables -> Control.Init { controller_nid = nid; tables })
        (int_range 0 7) small_bytes;
      return Control.Start;
      map2
        (fun cid value -> Control.Counter_update { cid; value })
        (int_range 0 31)
        (map2 (fun s v -> if s then v else -v) bool (int_range 0 1_000_000));
      map2
        (fun tid status -> Control.Term_status { tid; status })
        (int_range 0 31) bool;
      map2
        (fun vid value -> Control.Var_bind { vid; value })
        (int_range 0 7) small_bytes;
      map (fun nid -> Control.Report_stop { nid }) (int_range 0 7);
      map2
        (fun nid rule -> Control.Report_error { nid; rule })
        (int_range 0 7)
        (int_range (-1) 31);
    ]

let prop_control_roundtrip =
  QCheck.Test.make ~name:"control message wire round-trip (generated)"
    ~count:300
    (QCheck.make msg_gen ~print:(Format.asprintf "%a" Control.pp))
    (fun msg ->
      match Control.of_payload (Control.to_payload msg) with
      | Ok msg' -> msg' = msg
      | Error e -> QCheck.Test.fail_reportf "decode failed: %s" e)

(* --- campaigns: clean run, self-check, determinism --- *)

(* the failure a campaign found; no config here saves reproducers, so the
   campaign itself cannot fail *)
let campaign_found cfg =
  match Fuzz.execute ~ppf:null_ppf cfg with
  | Ok summary -> summary.Fuzz.found
  | Error e -> Alcotest.failf "campaign failed: %s" e

let fuzz_clean () =
  let cfg = { Fuzz.default_config with runs = 8; seed = 42; progress_every = 0 } in
  match campaign_found cfg with
  | None -> ()
  | Some f ->
      Alcotest.failf "clean campaign failed oracle %s: %s"
        f.Fuzz.failure.Oracles.oracle f.Fuzz.failure.Oracles.detail

let fuzz_self_check () =
  (* ISSUE 4 acceptance: an injected classifier-index defect is caught
     within 200 runs and shrinks to a script with at most 3 rules. *)
  let cfg =
    {
      Fuzz.default_config with
      runs = 200;
      seed = 42;
      shrink = true;
      defect = Oracles.Skip_index_bucket;
      progress_every = 0;
    }
  in
  match campaign_found cfg with
  | None -> Alcotest.fail "injected classifier defect not caught in 200 runs"
  | Some f ->
      check Alcotest.string "caught by the classifier oracle" "classifier_diff"
        f.Fuzz.failure.Oracles.oracle;
      let minimized =
        match f.Fuzz.minimized with
        | Some m -> m
        | None -> Alcotest.fail "shrinking made no progress"
      in
      let rules =
        List.length minimized.Fgen.script.Ast.scenario.Ast.rules
      in
      if rules > 3 then
        Alcotest.failf "minimized reproducer still has %d rules" rules;
      (* the reproducer file replays through of_fsl *)
      match Fgen.of_fsl (Fgen.to_fsl minimized) with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "minimized case does not replay: %s" e

let fuzz_conform_self_check () =
  (* the conform<->coverage cross-oracle catches a sabotaged coverage side:
     zeroing every filter's match count must contradict any passing packet
     EXPECT (seed 42 trips it on the very first case) *)
  let cfg =
    {
      Fuzz.default_config with
      runs = 100;
      seed = 42;
      defect = Oracles.Conform_zero_cover;
      progress_every = 0;
    }
  in
  match campaign_found cfg with
  | None -> Alcotest.fail "injected conform-coverage defect not caught"
  | Some f ->
      check Alcotest.string "caught by the conform oracle" "conform_coverage"
        f.Fuzz.failure.Oracles.oracle

let fuzz_deterministic () =
  let campaign () =
    let b = Buffer.create 1024 in
    let ppf = Format.formatter_of_buffer b in
    let cfg = { Fuzz.default_config with runs = 5; seed = 7 } in
    ignore (Fuzz.execute ~ppf cfg);
    Buffer.contents b
  in
  check Alcotest.string "two campaigns print identically" (campaign ())
    (campaign ())

let defect_names_parse () =
  List.iter
    (fun name ->
      match Oracles.defect_of_string name with
      | Ok d ->
          check Alcotest.string "name round-trips" name
            (Oracles.defect_to_string d)
      | Error e -> Alcotest.fail e)
    Oracles.defect_names

(* The cascade's event log, pinned: generated case [seed] must record
   these counts, and its binary log this digest. A change to the order in
   which the cascade sends, evaluates or fires moves the digest. *)
let cascade_log_pinned ~seed ~events:n ~counter_updates ~term_statuses
    ~conditions_rose ~actions ~digest () =
  match Vw_check.Runner.run (Fgen.generate ~seed) with
  | Error e -> Alcotest.fail e
  | Ok o ->
      let events = o.Vw_check.Runner.o_events in
      let count pred =
        List.length
          (List.filter (fun (e : Vw_obs.Event.t) -> pred e.body) events)
      in
      check Alcotest.int "events" n (List.length events);
      check Alcotest.int "Counter_update sends" counter_updates
        (count (function
          | Vw_obs.Event.Control_sent { ctl = C_counter_update _; _ } -> true
          | _ -> false));
      check Alcotest.int "Term_status sends" term_statuses
        (count (function
          | Vw_obs.Event.Control_sent { ctl = C_term_status _; _ } -> true
          | _ -> false));
      check Alcotest.int "conditions rose" conditions_rose
        (count (function Vw_obs.Event.Condition_rose _ -> true | _ -> false));
      check Alcotest.int "actions fired" actions
        (count (function Vw_obs.Event.Action_fired _ -> true | _ -> false));
      check Alcotest.string "binary log digest" digest
        (Digest.to_hex
           (Digest.string
              (Vw_obs.Binlog.of_events ~scenario:"x" ~recorded:n ~dropped:0
                 events)))

(* Case 258 runs its rules across nodes: counters ship to remote term
   evaluators and terms push their statuses to remote conditions before
   actions fire. *)
let cascade_log_pinned_258 =
  cascade_log_pinned ~seed:258 ~events:175 ~counter_updates:11
    ~term_statuses:19 ~conditions_rose:2 ~actions:9
    ~digest:"ebd55c40938b7a49d482c3380e7cfffd"

(* Case 5 raises two conditions in one cascade round; the round fires
   them in ascending condition id, and the reverse order moves its log. *)
let cascade_log_pinned_5 =
  cascade_log_pinned ~seed:5 ~events:66 ~counter_updates:0 ~term_statuses:2
    ~conditions_rose:2 ~actions:8 ~digest:"457e35d82c3311485b5dd34105545d43"

let suite =
  [
    ( "check",
      [
        qtest prop_generated_compiles;
        qtest prop_generated_codec_roundtrip;
        qtest prop_case_serialization_roundtrip;
        qtest prop_control_roundtrip;
        Alcotest.test_case "clean campaign raises no failure" `Quick fuzz_clean;
        Alcotest.test_case "self-check: injected defect caught and shrunk"
          `Quick fuzz_self_check;
        Alcotest.test_case "self-check: conform/coverage cross-oracle" `Quick
          fuzz_conform_self_check;
        Alcotest.test_case "campaign output deterministic" `Quick
          fuzz_deterministic;
        Alcotest.test_case "defect names round-trip" `Quick defect_names_parse;
        Alcotest.test_case "cascade event log pinned (case 258)" `Quick
          cascade_log_pinned_258;
        Alcotest.test_case "cascade firing order pinned (case 5)" `Quick
          cascade_log_pinned_5;
      ] );
  ]
