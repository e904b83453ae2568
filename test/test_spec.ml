(* Tests for the scenario generator (the paper's future-work idea):
   generated scripts must always compile, and must behave like their
   hand-written equivalents when run. *)

open Vw_sim
module Spec = Vw_spec.Spec
module Host = Vw_stack.Host
module Testbed = Vw_core.Testbed
module Scenario = Vw_core.Scenario

let check = Alcotest.check
let qtest = Test_seed.qtest

let ping =
  { Spec.filter = "udp_ping"; from_node = "alice"; to_node = "bob"; dir = `Recv }

let pong =
  { Spec.filter = "udp_pong"; from_node = "bob"; to_node = "alice"; dir = `Send }

let base_spec ?timeout () =
  Spec.create ~name:"generated" ?inactivity_timeout:timeout
    ~filters:
      [
        ("udp_ping", "(34 2 0x1388), (36 2 0x1389)");
        ("udp_pong", "(34 2 0x1389), (36 2 0x1388)");
      ]
    ~nodes:
      [
        ("alice", "02:00:00:00:00:0a", "10.0.0.10");
        ("bob", "02:00:00:00:00:0b", "10.0.0.11");
      ]
    ()

let test_generates_compiling_script () =
  let spec = base_spec () in
  Spec.inject spec (Spec.Drop_window (ping, 2, 4));
  Spec.inject spec (Spec.Duplicate_at (pong, 6));
  Spec.inject spec (Spec.Delay_from (ping, 8, 0.05));
  Spec.inject spec (Spec.Corrupt_at (ping, 9));
  Spec.inject spec (Spec.Crash_when (pong, 100, "bob"));
  Spec.expect spec (Spec.At_least (ping, 5));
  Spec.expect spec (Spec.At_most (pong, 50));
  Spec.expect spec (Spec.Exactly (ping, 8));
  Spec.expect spec (Spec.After (ping, 3, pong, 2));
  match Spec.generate spec with
  | Ok tables ->
      check Alcotest.int "two filters" 2
        (Array.length tables.Vw_fsl.Tables.filters);
      check Alcotest.bool "has actions" true
        (Array.length tables.Vw_fsl.Tables.actions > 5)
  | Error e -> Alcotest.failf "generated script failed to compile:\n%s" e

let test_counters_are_shared () =
  let spec = base_spec () in
  Spec.inject spec (Spec.Drop_window (ping, 0, 1));
  Spec.expect spec (Spec.At_least (ping, 5));
  Spec.expect spec (Spec.At_most (ping, 50));
  match Spec.generate spec with
  | Ok tables ->
      (* one counter for ping, not three *)
      check Alcotest.int "deduplicated counters" 1
        (Array.length tables.Vw_fsl.Tables.counters)
  | Error e -> Alcotest.fail e

(* end-to-end: run a generated scenario on a real testbed *)

let run_generated spec ~pings =
  let script = Spec.to_script spec in
  let testbed =
    Testbed.create
      [
        ("alice", Vw_net.Mac.of_string "02:00:00:00:00:0a",
         Vw_net.Ip_addr.of_string "10.0.0.10");
        ("bob", Vw_net.Mac.of_string "02:00:00:00:00:0b",
         Vw_net.Ip_addr.of_string "10.0.0.11");
      ]
  in
  let ping_count = ref 0 and pong_count = ref 0 in
  let workload tb =
    let engine = Testbed.engine tb in
    let alice = Testbed.host (Testbed.node tb "alice") in
    let bob = Testbed.host (Testbed.node tb "bob") in
    Host.udp_bind bob ~port:5001 (fun ~src ~src_port payload ->
        incr ping_count;
        Host.udp_send bob ~src_port:5001 ~dst:src ~dst_port:src_port payload);
    Host.udp_bind alice ~port:5000 (fun ~src:_ ~src_port:_ _ -> incr pong_count);
    for i = 0 to pings - 1 do
      Engine.schedule_after engine
        ~delay:(i * Simtime.ms 5)
        (fun () ->
          Host.udp_send alice ~src_port:5000 ~dst:(Host.ip bob)
            ~dst_port:5001 (Bytes.create 32))
    done
  in
  match Scenario.run testbed ~script ~max_duration:(Simtime.sec 5.0) ~workload with
  | Ok result -> (result, !ping_count, !pong_count)
  | Error e -> Alcotest.failf "generated scenario failed to run: %s" e

let test_generated_drop_window_runs () =
  let spec = base_spec () in
  Spec.inject spec (Spec.Drop_window (ping, 2, 4));
  let result, pings, _ = run_generated spec ~pings:10 in
  check Alcotest.int "pings 3 and 4 dropped" 8 pings;
  check Alcotest.bool "no errors" true (Scenario.passed result)

let test_generated_stop_and_bounds () =
  let spec = base_spec ~timeout:0.5 () in
  Spec.expect spec (Spec.At_least (ping, 5));
  Spec.expect spec (Spec.At_most (pong, 100));
  let result, _, _ = run_generated spec ~pings:10 in
  check Alcotest.string "stopped at the 5th ping" "STOPPED"
    (Scenario.outcome_to_string result.Scenario.outcome);
  check Alcotest.bool "passed" true (Scenario.passed result)

let test_generated_at_most_flags () =
  let spec = base_spec () in
  Spec.expect spec (Spec.At_most (ping, 4));
  let result, _, _ = run_generated spec ~pings:10 in
  check Alcotest.bool "bound violation flagged" true
    (result.Scenario.errors <> []);
  check Alcotest.bool "failed" false (Scenario.passed result)

let test_generated_after_causality () =
  (* after the 3rd ping, demand 2 more pongs; the workload satisfies it *)
  let spec = base_spec ~timeout:0.5 () in
  Spec.expect spec (Spec.After (ping, 3, pong, 2));
  let result, _, _ = run_generated spec ~pings:10 in
  check Alcotest.string "causality satisfied -> STOP" "STOPPED"
    (Scenario.outcome_to_string result.Scenario.outcome)

let test_generated_timeout_failure () =
  (* demand 50 pings but only send 3: the inactivity timeout must fail it *)
  let spec = base_spec ~timeout:0.2 () in
  Spec.expect spec (Spec.At_least (ping, 50));
  let result, _, _ = run_generated spec ~pings:3 in
  check Alcotest.string "timed out" "TIMED_OUT"
    (Scenario.outcome_to_string result.Scenario.outcome);
  check Alcotest.bool "failed" false (Scenario.passed result)

(* property: arbitrary well-formed specs always compile *)

let gen_packet =
  QCheck.Gen.(
    let* f = oneofl [ "udp_ping"; "udp_pong" ] in
    let* d = oneofl [ `Send; `Recv ] in
    let from_node, to_node =
      if f = "udp_ping" then ("alice", "bob") else ("bob", "alice")
    in
    return { Spec.filter = f; from_node; to_node; dir = d })

let gen_fault =
  QCheck.Gen.(
    let* p = gen_packet in
    let* n = int_range 0 20 in
    oneofl
      [
        Spec.Drop_window (p, n, n + 2);
        Spec.Delay_from (p, n, 0.02);
        Spec.Duplicate_at (p, n + 1);
        Spec.Corrupt_at (p, n + 1);
        Spec.Crash_when (p, n + 1, "bob");
      ])

let gen_expectation =
  QCheck.Gen.(
    let* p = gen_packet in
    let* q = gen_packet in
    let* n = int_range 1 20 in
    oneofl
      [
        Spec.At_least (p, n);
        Spec.At_most (p, n);
        Spec.Exactly (p, n);
        Spec.After (p, n, q, n);
      ])

let prop_generated_always_compiles =
  QCheck.Test.make ~name:"generated scripts always compile" ~count:200
    (QCheck.make
       QCheck.Gen.(
         let* faults = list_size (int_range 0 5) gen_fault in
         let* expectations = list_size (int_range 0 5) gen_expectation in
         return (faults, expectations)))
    (fun (faults, expectations) ->
      let spec = base_spec ~timeout:1.0 () in
      List.iter (Spec.inject spec) faults;
      List.iter (Spec.expect spec) expectations;
      match Spec.generate spec with Ok _ -> true | Error _ -> false)

let prop_generated_print_parse_fixpoint =
  QCheck.Test.make ~name:"generated scripts survive print/parse" ~count:100
    (QCheck.make
       QCheck.Gen.(
         let* faults = list_size (int_range 0 4) gen_fault in
         let* expectations = list_size (int_range 0 4) gen_expectation in
         return (faults, expectations)))
    (fun (faults, expectations) ->
      let spec = base_spec ~timeout:1.0 () in
      List.iter (Spec.inject spec) faults;
      List.iter (Spec.expect spec) expectations;
      match Vw_fsl.Parser.parse (Spec.to_script spec) with
      | Error _ -> false
      | Ok ast -> (
          let printed = Vw_fsl.Ast.script_to_string ast in
          match Vw_fsl.Parser.parse printed with
          | Error _ -> false
          | Ok ast2 ->
              String.equal printed (Vw_fsl.Ast.script_to_string ast2)))

let suite =
  [
    ( "spec",
      [
        Alcotest.test_case "full feature script compiles" `Quick
          test_generates_compiling_script;
        Alcotest.test_case "counters deduplicated" `Quick test_counters_are_shared;
        Alcotest.test_case "drop window end-to-end" `Quick
          test_generated_drop_window_runs;
        Alcotest.test_case "STOP + bounds end-to-end" `Quick
          test_generated_stop_and_bounds;
        Alcotest.test_case "At_most flags" `Quick test_generated_at_most_flags;
        Alcotest.test_case "After causality" `Quick test_generated_after_causality;
        Alcotest.test_case "timeout failure" `Quick test_generated_timeout_failure;
        qtest prop_generated_always_compiles;
        qtest prop_generated_print_parse_fixpoint;
      ] );
  ]
