(* Conformance layer: replay the committed corpus under test/conformance/
   through Vw_conform.Driver (the same path `vwctl conform` takes), check
   the deliberately-failing variant produces a "dropped" diagnosis, and
   property-check the CONFORM section of generated scripts round-trips
   through the printer. *)

open Alcotest
module Driver = Vw_conform.Driver
module Eval = Vw_conform.Eval
module Report = Vw_conform.Report
module Workloads = Vw_conform.Workloads
module Fgen = Vw_check.Gen
module Ast = Vw_fsl.Ast

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* run one corpus script exactly as `vwctl conform` would: directives
   pick the workload/duration/arp config, the driver does the rest *)
let run_corpus_case ?(on_start = ignore) ?capacity path =
  let source = read_file path in
  match Workloads.parse_directives source with
  | Error e -> failf "%s: bad directives: %s" path e
  | Ok d ->
      let config =
        Option.value
          (Workloads.directives_config d)
          ~default:Vw_core.Testbed.default_config
      in
      let workload tb =
        on_start tb;
        Workloads.make d.Workloads.d_workload ~bytes:d.d_bytes tb
      in
      let max_duration = Vw_sim.Simtime.sec d.d_duration in
      Driver.run ~config ~max_duration ?capacity ~workload
        ~name:(Filename.basename path) ~source ()

let fsl_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".fsl")
  |> List.sort compare
  |> List.map (fun f -> Filename.concat dir f)

let corpus_files () = fsl_files "conformance"

let failed_diagnoses r =
  List.filter_map
    (fun (c : Eval.checked) ->
      if Eval.ok c.Eval.verdict then None
      else Some (Eval.diagnosis c.Eval.verdict))
    r.Driver.c_checked

(* --- the committed corpus passes, file by file --- *)

let test_corpus_replay () =
  let files = corpus_files () in
  check bool "corpus holds the four protocol suites and more" true
    (List.length files >= 4);
  List.iter
    (fun path ->
      match run_corpus_case path with
      | Error errs -> failf "%s: %s" path (String.concat "; " errs)
      | Ok r ->
          check int
            (Printf.sprintf "%s: no ring truncation" path)
            0 r.Driver.c_truncated;
          if not (Driver.case_ok r) then
            failf "%s: expectations failed:\n%s" path
              (String.concat "\n" (failed_diagnoses r)))
    files

(* --- the deliberate SYN-ACK drop is missed with a named-rule diagnosis --- *)

let test_synack_drop_diagnosed () =
  match run_corpus_case "conformance/failing/tcp_handshake_synack_drop.fsl" with
  | Error errs -> failf "driver error: %s" (String.concat "; " errs)
  | Ok r -> (
      check bool "case fails" false (Driver.case_ok r);
      match r.Driver.c_checked with
      | [ { Eval.verdict = Eval.Missed { diagnosis }; _ } ] ->
          let contains needle =
            let nl = String.length needle and hl = String.length diagnosis in
            let rec go i =
              i + nl <= hl
              && (String.sub diagnosis i nl = needle || go (i + 1))
            in
            go 0
          in
          check bool "diagnosis names the furthest stage" true
            (contains "furthest stage: dropped");
          check bool "diagnosis names the dropped packet" true
            (contains "TCP_synack");
          check bool "diagnosis names the DROP rule" true (contains "rule")
      | [ c ] ->
          failf "expected a missed verdict, got %s"
            (Eval.status_name c.Eval.verdict)
      | l -> failf "expected one expectation, got %d" (List.length l))

(* --- verdicts and the vw-conform/1 summary are deterministic --- *)

let test_replay_deterministic () =
  let once () =
    match run_corpus_case "conformance/inject_probe.fsl" with
    | Error errs -> failf "driver error: %s" (String.concat "; " errs)
    | Ok r -> Report.summary_json [ Report.of_result r ]
  in
  check string "two runs render identical vw-conform/1 JSON" (once ()) (once ())

(* --- every stamped Expect_checked agrees with its verdict --- *)

let test_expect_checked_stamps () =
  match run_corpus_case "conformance/inject_probe.fsl" with
  | Error errs -> failf "driver error: %s" (String.concat "; " errs)
  | Ok r ->
      let stamps =
        List.filter_map
          (fun (e : Vw_obs.Event.t) ->
            match e.Vw_obs.Event.body with
            | Vw_obs.Event.Expect_checked { xid; ok } -> Some (xid, ok)
            | _ -> None)
          r.Driver.c_events
        |> List.sort compare
      in
      let expected =
        List.mapi (fun i (c : Eval.checked) -> (i, Eval.ok c.Eval.verdict))
          r.Driver.c_checked
      in
      check (list (pair int bool)) "one stamp per expectation" expected stamps

(* --- udp-blast: outcome, engine stats and event log pinned --- *)

let blast_script =
  {|
FILTER_TABLE
udp_ping: (34 2 0x1388), (36 2 0x1389)
END
NODE_TABLE
node1 02:00:00:00:00:01 10.0.0.1
node2 02:00:00:00:00:02 10.0.0.2
END
SCENARIO blast_parity
PING_S: (udp_ping, node1, node2, SEND)
PING_R: (udp_ping, node1, node2, RECV)
(TRUE) >> ENABLE_CNTR( PING_S ); ENABLE_CNTR( PING_R );
((PING_R = 40)) >> STOP;
END
|}

let test_blast_pinned () =
  (* the sender pushes 64 frames in 32-frame bursts through its egress
     engine (Testbed.process_batch); a mid-campaign STOP cuts it off. The
     outcome, both nodes' engine stats and the event log must not move. *)
  let tables =
    match Vw_fsl.Compile.parse_and_compile blast_script with
    | Ok t -> t
    | Error e -> failf "compile: %s" e
  in
  let testbed = Vw_core.Testbed.of_node_table tables in
  Vw_core.Testbed.enable_observability testbed;
  match
    Vw_core.Scenario.run testbed ~script:blast_script
      ~max_duration:(Vw_sim.Simtime.sec 5.0)
      ~workload:(Workloads.make Workloads.Udp_blast ~bytes:4096)
  with
  | Error e -> failf "scenario: %s" e
  | Ok r ->
      let stats node =
        Vw_engine.Fie.stats_fields
          (Vw_engine.Fie.stats
             (Vw_core.Testbed.fie (Vw_core.Testbed.node testbed node)))
      in
      check string "stopped by the scenario" "STOPPED"
        (Vw_core.Scenario.outcome_to_string r.Vw_core.Scenario.outcome);
      check (list (pair string int)) "node1 stats"
        [ ("packets_inspected", 64); ("packets_matched", 64);
          ("filters_scanned", 64); ("index_hits", 64); ("index_misses", 0);
          ("counter_updates", 64); ("terms_evaluated", 0);
          ("conditions_evaluated", 0); ("actions_executed", 1);
          ("control_sent", 2); ("control_received", 1); ("faults_drop", 0);
          ("faults_delay", 0); ("faults_reorder", 0); ("faults_dup", 0);
          ("faults_modify", 0); ("cascade_overflows", 0) ]
        (stats "node1");
      check (list (pair string int)) "node2 stats"
        [ ("packets_inspected", 41); ("packets_matched", 41);
          ("filters_scanned", 41); ("index_hits", 41); ("index_misses", 0);
          ("counter_updates", 41); ("terms_evaluated", 41);
          ("conditions_evaluated", 2); ("actions_executed", 2);
          ("control_sent", 1); ("control_received", 2); ("faults_drop", 0);
          ("faults_delay", 0); ("faults_reorder", 0); ("faults_dup", 0);
          ("faults_modify", 0); ("cascade_overflows", 0) ]
        (stats "node2");
      match
        Vw_core.Testbed.events_binary testbed ~scenario:"blast_parity"
      with
      | None -> failf "no binary event log"
      | Some events ->
          check int "event log length" 10766 (String.length events);
          check string "event log digest" "5376089ee19b56f4a0515b14bb068e0d"
            (Digest.to_hex (Digest.string events))

(* --- verdicts do not depend on the order events arrive in --- *)

let verdict_text (c : Eval.checked) =
  match c.Eval.verdict with
  | Eval.Pass { at } -> Printf.sprintf "pass at %d" at
  | Eval.Tolerance_miss { actual; diagnosis } ->
      Printf.sprintf "tolerance_miss at %d: %s" actual diagnosis
  | Eval.Missed { diagnosis } -> "missed: " ^ diagnosis

let test_eval_order_independent () =
  List.iter
    (fun path ->
      let anchor = ref Vw_sim.Simtime.zero in
      let on_start tb =
        anchor := Vw_sim.Engine.now (Vw_core.Testbed.engine tb)
      in
      match run_corpus_case ~on_start path with
      | Error errs -> failf "%s: %s" path (String.concat "; " errs)
      | Ok r -> (
          let script =
            match Vw_fsl.Parser.parse (read_file path) with
            | Ok s -> s
            | Error e -> failf "%s: %s" path e
          in
          match Vw_fsl.Conform_ir.compile r.Driver.c_tables script.Ast.conform with
          | Error es -> failf "%s: %s" path (String.concat "; " es)
          | Ok ir ->
              let verdicts events =
                List.map verdict_text
                  (Eval.run r.Driver.c_tables ~ir ~anchor:!anchor ~events)
              in
              let events = r.Driver.c_events in
              check (list string) (path ^ ": the driver's verdicts")
                (List.map verdict_text r.Driver.c_checked)
                (verdicts events);
              check (list string) (path ^ ": reversed events")
                (verdicts events)
                (verdicts (List.rev events))))
    [
      "conformance/tcp_retransmit_drop.fsl";
      "conformance/failing/tcp_handshake_synack_drop.fsl";
      "conformance/failing/tolerance_miss.fsl";
    ]

(* --- the driver decodes the rings once ---

   [c_events] is the first decode of the rings followed by the verdict
   stamps, which must be exactly what decoding the finished testbed's
   rings gives: on every committed case (the e2ebench corpus holds copies
   of some, run once), and on rings small enough that the stamps
   overwrite retained events, where the driver decodes again. *)

let test_events_decoded_once () =
  let run ?capacity path =
    let testbed = ref None in
    match
      run_corpus_case ?capacity ~on_start:(fun tb -> testbed := Some tb) path
    with
    | Error errs -> failf "%s: %s" path (String.concat "; " errs)
    | Ok r ->
        let tb = Option.get !testbed in
        check bool
          (Printf.sprintf "%s (capacity %s): c_events = Testbed.events" path
             (Option.fold ~none:"default" ~some:string_of_int capacity))
          true
          (r.Driver.c_events = Vw_core.Testbed.events tb);
        (r, tb)
  in
  let distinct =
    List.fold_left
      (fun seen path ->
        let src = read_file path in
        if List.mem_assoc src seen then seen else (src, path) :: seen)
      []
      (corpus_files ()
      @ fsl_files "conformance/failing"
      @ fsl_files "../e2ebench/corpus")
  in
  List.iter (fun (_, path) -> ignore (run path)) (List.rev distinct);
  (* rings smaller than the first node's log, where the stamps land *)
  let path = "conformance/tcp_retransmit_drop.fsl" in
  let r, tb = run path in
  let stamps = List.length r.Driver.c_checked in
  check bool "several stamps" true (stamps >= 2);
  let first tb =
    let name = Vw_core.Testbed.name (List.hd (Vw_core.Testbed.nodes tb)) in
    Option.get (Vw_core.Testbed.recorder tb name)
  in
  let held = Vw_obs.Recorder.length (first tb) - stamps in
  (* one the run itself wraps *)
  let _, tb = run ~capacity:(held / 2) path in
  check bool "the run wrapped the ring" true
    (Vw_obs.Recorder.dropped (first tb) > stamps);
  (* one that only the stamps overwrite *)
  let _, tb = run ~capacity:(held + 1) path in
  check int "the stamps overwrote" (stamps - 1)
    (Vw_obs.Recorder.dropped (first tb))

(* --- qcheck: CONFORM survives the print->parse round-trip --- *)

let seed_gen = QCheck.(int_bound 1_000_000)

let prop_conform_fixpoint =
  QCheck.Test.make ~name:"generated CONFORM sections print/parse fixpoint"
    ~count:80 seed_gen (fun seed ->
      let case = Fgen.generate ~seed in
      let printed = Ast.script_to_string case.Fgen.script in
      match Vw_fsl.Parser.parse printed with
      | Error e -> QCheck.Test.fail_reportf "re-parse failed: %s" e
      | Ok script' ->
          (* compare the statements' printed forms: source positions (and
             float spellings) legitimately differ between the generated
             AST and the re-parsed one *)
          let render l =
            List.map (Format.asprintf "%a" Ast.pp_conform_stmt) l
          in
          if render script'.Ast.conform <> render case.Fgen.script.Ast.conform
          then
            QCheck.Test.fail_reportf
              "CONFORM section changed across print/parse:\n%s" printed;
          true)

(* the property above must not be vacuous: generation emits CONFORM
   sections often enough to exercise the inject/expect printer *)
let test_generator_emits_conform () =
  let with_conform = ref 0 in
  for seed = 0 to 199 do
    if (Fgen.generate ~seed).Fgen.script.Ast.conform <> [] then
      incr with_conform
  done;
  if !with_conform < 40 then
    failf "only %d/200 generated scripts had a CONFORM section" !with_conform

let suite =
  [
    ( "conform",
      [
        test_case "corpus: committed suites all conform" `Slow
          test_corpus_replay;
        test_case "SYN-ACK drop is missed and diagnosed" `Quick
          test_synack_drop_diagnosed;
        test_case "replay is deterministic" `Quick test_replay_deterministic;
        test_case "Expect_checked stamps mirror verdicts" `Quick
          test_expect_checked_stamps;
        test_case "udp-blast outcome, stats and event log pinned" `Quick
          test_blast_pinned;
        Test_seed.qtest prop_conform_fixpoint;
        test_case "generator emits CONFORM sections" `Quick
          test_generator_emits_conform;
        test_case "verdicts ignore event order" `Quick
          test_eval_order_independent;
        test_case "the driver decodes the rings once" `Quick
          test_events_decoded_once;
      ] );
  ]
