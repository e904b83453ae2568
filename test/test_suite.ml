(* Tests for the batch suite runner. *)

open Vw_sim
module Host = Vw_stack.Host
module Suite = Vw_core.Suite
module Testbed = Vw_core.Testbed

let check = Alcotest.check

let ping_script ~header ~rules =
  {|
FILTER_TABLE
udp_ping: (34 2 0x1388), (36 2 0x1389)
END
NODE_TABLE
node1 02:00:00:00:00:01 10.0.0.1
node2 02:00:00:00:00:02 10.0.0.2
END
SCENARIO |}
  ^ header ^ "\n" ^ rules ^ "\nEND"

let send_pings n testbed =
  let engine = Testbed.engine testbed in
  let a = Testbed.host (Testbed.node testbed "node1") in
  let b = Testbed.host (Testbed.node testbed "node2") in
  Host.udp_bind b ~port:0x1389 (fun ~src:_ ~src_port:_ _ -> ());
  for i = 0 to n - 1 do
    Engine.schedule_after engine
      ~delay:(i * Simtime.ms 2)
      (fun () ->
        Host.udp_send a ~src_port:0x1388 ~dst:(Host.ip b) ~dst_port:0x1389
          (Bytes.create 16))
  done

let stop_at_5 =
  ping_script ~header:"stop_at_5 1sec"
    ~rules:
      {|
P: (udp_ping, node1, node2, RECV)
(TRUE) >> ENABLE_CNTR( P );
((P = 5)) >> STOP;
|}

let always_flags =
  ping_script ~header:"always_flags"
    ~rules:
      {|
P: (udp_ping, node1, node2, RECV)
(TRUE) >> ENABLE_CNTR( P );
((P = 1)) >> FLAG_ERROR;
|}

let test_mixed_expectations () =
  let report =
    Suite.run
      [
        Suite.case ~name:"positive" ~script:stop_at_5
          ~max_duration:(Simtime.sec 5.0) ~workload:(send_pings 8) ();
        Suite.case ~name:"negative" ~expect:`Fail ~script:always_flags
          ~max_duration:(Simtime.sec 2.0) ~workload:(send_pings 3) ();
      ]
  in
  check Alcotest.int "both ok" 2 report.Suite.passed;
  check Alcotest.int "none failed" 0 report.Suite.failed;
  check Alcotest.bool "report ok" true (Suite.ok report)

let test_expectation_mismatch_fails () =
  let report =
    Suite.run
      [
        (* expecting PASS from a scenario that always flags: mismatch *)
        Suite.case ~name:"wrong-expectation" ~script:always_flags
          ~max_duration:(Simtime.sec 2.0) ~workload:(send_pings 3) ();
      ]
  in
  check Alcotest.int "failed" 1 report.Suite.failed;
  check Alcotest.bool "not ok" false (Suite.ok report)

let test_broken_script_is_a_failure () =
  let report =
    Suite.run
      [
        Suite.case ~name:"broken" ~script:"SCENARIO nonsense"
          ~workload:(fun _ -> ())
          ();
      ]
  in
  check Alcotest.int "compile error counts as failure" 1 report.Suite.failed;
  match (List.hd report.Suite.outcomes).Suite.o_result with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected a compile error"

let test_stop_on_failure_skips_rest () =
  let second_ran = ref false in
  let report =
    Suite.run ~stop_on_failure:true
      [
        Suite.case ~name:"fails-first" ~script:always_flags
          ~max_duration:(Simtime.sec 2.0) ~workload:(send_pings 3) ();
        Suite.case ~name:"never-runs" ~script:stop_at_5
          ~max_duration:(Simtime.sec 2.0)
          ~workload:(fun tb ->
            second_ran := true;
            send_pings 8 tb)
          ();
      ]
  in
  check Alcotest.int "only one outcome" 1 (List.length report.Suite.outcomes);
  check Alcotest.bool "second case skipped" false !second_ran

let test_report_rendering () =
  let report =
    Suite.run
      [
        Suite.case ~name:"positive" ~script:stop_at_5
          ~max_duration:(Simtime.sec 5.0) ~workload:(send_pings 8) ();
      ]
  in
  let text = Format.asprintf "%a" Suite.pp_report report in
  check Alcotest.bool "mentions the case and totals" true
    (let has needle =
       let rec go i =
         i + String.length needle <= String.length text
         && (String.sub text i (String.length needle) = needle || go (i + 1))
       in
       go 0
     in
     has "positive" && has "1 passed, 0 failed")

let suite =
  [
    ( "suite",
      [
        Alcotest.test_case "mixed expectations" `Quick test_mixed_expectations;
        Alcotest.test_case "expectation mismatch" `Quick
          test_expectation_mismatch_fails;
        Alcotest.test_case "broken script" `Quick test_broken_script_is_a_failure;
        Alcotest.test_case "stop on failure" `Quick test_stop_on_failure_skips_rest;
        Alcotest.test_case "report rendering" `Quick test_report_rendering;
      ] );
  ]
