(* Tests for the run-analysis layer (lib/report): the JSON reader, the
   vw-events/1 reload path, coverage scoring, the Chrome-trace export and
   the self-contained HTML report. *)

open Vw_sim
module Ev = Vw_obs.Event
module Testbed = Vw_core.Testbed
module Scenario = Vw_core.Scenario
module Host = Vw_stack.Host
module J = Vw_report.Json
module Eio = Vw_report.Events_io
module Cov = Vw_report.Coverage
module Spans = Vw_report.Spans
module Mv = Vw_report.Metrics_view

let check = Alcotest.check

let compile src =
  match Vw_fsl.Compile.parse_and_compile src with
  | Ok t -> t
  | Error e -> Alcotest.fail e

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* alice pings bob on the quickstart ports; bob pongs back *)
let udp_ping_workload ~pings tb =
  let a = Testbed.host (Testbed.node tb "alice") in
  let b = Testbed.host (Testbed.node tb "bob") in
  let engine = Testbed.engine tb in
  Host.udp_bind b ~port:0x1389 (fun ~src ~src_port payload ->
      Host.udp_send b ~src_port:0x1389 ~dst:src ~dst_port:src_port payload);
  Host.udp_bind a ~port:0x1388 (fun ~src:_ ~src_port:_ _ -> ());
  for i = 0 to pings - 1 do
    Vw_sim.Engine.schedule_after engine
      ~delay:(i * Simtime.ms 5)
      (fun () ->
        Host.udp_send a ~src_port:0x1388 ~dst:(Host.ip b) ~dst_port:0x1389
          (Bytes.create 64))
  done

let run_observed ?(script = Vw_scripts.udp_drop_dup) ?(pings = 10) () =
  let tables = compile script in
  let testbed = Testbed.of_node_table tables in
  Testbed.enable_observability testbed;
  match
    Scenario.run testbed ~script ~max_duration:(Simtime.sec 5.0)
      ~workload:(udp_ping_workload ~pings)
  with
  | Ok r -> (testbed, tables, r)
  | Error e -> Alcotest.fail e

(* --- Json --- *)

let test_json_values () =
  let v =
    J.parse_exn
      {|{"a": 1, "b": -2.5, "s": "x\né", "l": [true, false, null], "o": {}}|}
  in
  check Alcotest.(option int) "int" (Some 1) (Option.bind (J.mem "a" v) J.to_int);
  check
    Alcotest.(option (float 1e-9))
    "float" (Some (-2.5))
    (Option.bind (J.mem "b" v) J.to_float);
  check
    Alcotest.(option string)
    "escapes decode to utf8" (Some "x\n\xc3\xa9")
    (Option.bind (J.mem "s" v) J.to_string);
  (match Option.bind (J.mem "l" v) J.to_list with
  | Some [ J.Bool true; J.Bool false; J.Null ] -> ()
  | _ -> Alcotest.fail "list decode");
  check
    Alcotest.(list string)
    "keys in source order"
    [ "a"; "b"; "s"; "l"; "o" ]
    (J.obj_keys v);
  (* an integral float converts to int, a fractional one does not *)
  check Alcotest.(option int) "3.0 is 3" (Some 3) (J.to_int (J.Float 3.0));
  check Alcotest.(option int) "3.5 is not" None (J.to_int (J.Float 3.5))

let test_json_errors () =
  let bad s =
    match J.parse s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "accepted %S" s
  in
  List.iter bad
    [ ""; "{"; "[1,]"; "{\"a\" 1}"; "tru"; "\"unterminated"; "1 2" ]

(* Nesting is bounded: a document 512 levels deep parses, and a million
   unclosed arrays or objects is an [Error], not a deep recursion. *)
let test_json_depth () =
  let nested n =
    String.concat "" (List.init n (fun _ -> "["))
    ^ String.concat "" (List.init n (fun _ -> "]"))
  in
  (match J.parse (nested 512) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "512 levels: %s" e);
  let rejected what s =
    match J.parse s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s parsed" what
  in
  rejected "513 levels" (nested 513);
  rejected "10^6 [" (String.make 1_000_000 '[');
  let objects = Buffer.create 6_000_000 in
  for _ = 1 to 1_000_000 do
    Buffer.add_string objects "{\"a\":"
  done;
  rejected "10^6 {\"a\":" (Buffer.contents objects)

(* --- Events_io: Event.to_json must round-trip --- *)

let test_events_roundtrip () =
  let testbed, _tables, _result = run_observed () in
  let events = Testbed.events testbed in
  check Alcotest.bool "run produced events" true (List.length events > 20);
  let jsonl =
    String.concat "\n"
      ({|{"schema": "vw-events/1", "scenario": "udp_drop_dup", "recorded": 1, "dropped": 0}|}
      :: List.map Ev.to_json events)
  in
  match Eio.of_string jsonl with
  | Error e -> Alcotest.failf "reload: %s" e
  | Ok (header, reloaded) ->
      (match header with
      | Some h ->
          check Alcotest.string "header scenario" "udp_drop_dup" h.Eio.scenario
      | None -> Alcotest.fail "header not detected");
      check Alcotest.int "every event survives" (List.length events)
        (List.length reloaded);
      List.iter2
        (fun (a : Ev.t) (b : Ev.t) ->
          if a <> b then
            Alcotest.failf "event %d did not round-trip: %s" a.Ev.seq
              (Ev.to_json a))
        events reloaded

let test_events_bad_input () =
  (match Eio.of_string {|{"schema": "vw-events/2"}|} with
  | Error e ->
      check Alcotest.bool "names the schema" true (contains e "vw-events")
  | Ok _ -> Alcotest.fail "accepted future schema");
  match Eio.of_string {|{"kind": "no_such_kind", "seq": 0}|} with
  | Error e -> check Alcotest.bool "carries line number" true (contains e "line 1")
  | Ok _ -> Alcotest.fail "accepted unknown kind"

(* the same loader must sniff a vw-events/2 binary file and surface the
   identical header and typed events *)
let test_events_binary_autodetect () =
  let testbed, _tables, _result = run_observed () in
  let events = Testbed.events testbed in
  let blob =
    Vw_obs.Binlog.of_events ~scenario:"udp_drop_dup"
      ~recorded:(List.length events) ~dropped:0 events
  in
  match Eio.of_string blob with
  | Error e -> Alcotest.failf "binary reload: %s" e
  | Ok (header, reloaded) ->
      (match header with
      | Some h ->
          check Alcotest.string "header scenario" "udp_drop_dup" h.Eio.scenario;
          check Alcotest.int "header recorded" (List.length events)
            h.Eio.recorded;
          check Alcotest.int "header dropped" 0 h.Eio.dropped
      | None -> Alcotest.fail "binary header not surfaced");
      check Alcotest.int "every event survives" (List.length events)
        (List.length reloaded);
      List.iter2
        (fun (a : Ev.t) (b : Ev.t) ->
          if a <> b then
            Alcotest.failf "event %d did not survive the binary loader" a.Ev.seq)
        events reloaded

(* --- Coverage --- *)

let test_coverage_live_vs_offline () =
  let testbed, tables, _result = run_observed () in
  let events = Testbed.events testbed in
  let live = Cov.analyze tables events in
  let jsonl = String.concat "\n" (List.map Ev.to_json events) in
  let offline =
    match Eio.of_string jsonl with
    | Ok (_, evs) -> Cov.analyze tables evs
    | Error e -> Alcotest.failf "reload: %s" e
  in
  check Alcotest.string "offline report is byte-identical" (Cov.to_json live)
    (Cov.to_json offline)

let test_coverage_stages () =
  (* 10 pings: the DROP (3 <= PING <= 4) and DUP (PONG = 6) rules both
     fire; the always-true ENABLE rule emits no pipeline events at all *)
  let testbed, tables, _result = run_observed () in
  let cov = Cov.analyze tables (Testbed.events testbed) in
  check Alcotest.int "3 rules scored" 3 (Cov.total_rules cov);
  check Alcotest.int "2 fired" 2 (Cov.fired_rules cov);
  check (Alcotest.float 0.01) "pct" 66.67 (Cov.coverage_pct cov);
  let r0 = List.nth cov.Cov.rules 0 in
  check Alcotest.string "rule 0 saw nothing" "nothing"
    (Cov.stage_name r0.Cov.furthest);
  List.iter
    (fun (r : Cov.rule_cov) ->
      if r.Cov.rule > 0 then begin
        check Alcotest.bool "fired at least once" true (r.Cov.rule_fired >= 1);
        check Alcotest.string "stage is fired" "fired"
          (Cov.stage_name r.Cov.furthest)
      end)
    cov.Cov.rules;
  check Alcotest.int "no dead filter" 0 (List.length (Cov.dead_filters cov));
  (* 2 pings: counters move but (PING > 2) never holds *)
  let testbed2, tables2, _ = run_observed ~pings:2 () in
  let cov2 = Cov.analyze tables2 (Testbed.events testbed2) in
  check Alcotest.int "nothing fired" 0 (Cov.fired_rules cov2);
  let r1 = List.nth cov2.Cov.rules 1 in
  check Alcotest.string "blocked at the counter" "counter_change"
    (Cov.stage_name r1.Cov.furthest)

let test_coverage_json_schema () =
  let testbed, tables, _result = run_observed () in
  let cov = Cov.analyze tables (Testbed.events testbed) in
  let v = J.parse_exn (Cov.to_json cov) in
  check
    Alcotest.(option string)
    "schema tag" (Some "vw-cover/1")
    (Option.bind (J.mem "schema" v) J.to_string);
  let rules = Option.get (J.mem "rules" v) in
  check
    Alcotest.(option int)
    "total" (Some 3)
    (Option.bind (J.mem "total" rules) J.to_int);
  check
    Alcotest.(option int)
    "fired" (Some 2)
    (Option.bind (J.mem "fired" rules) J.to_int);
  (match Option.bind (J.mem "coverage_pct" rules) J.to_float with
  | Some p -> check (Alcotest.float 0.01) "pct" 66.67 p
  | None -> Alcotest.fail "coverage_pct missing");
  let per_rule = Option.get (Option.bind (J.mem "per_rule" rules) J.to_list) in
  check Alcotest.int "one entry per rule" 3 (List.length per_rule);
  List.iter
    (fun section ->
      match J.mem section v with
      | Some (J.Obj _) -> ()
      | _ -> Alcotest.failf "section %s missing" section)
    [ "filters"; "counters"; "terms" ]

(* a filter no packet can ever match: ports 9999/10000 see no traffic *)
let dead_filter_script =
  {|
FILTER_TABLE
udp_ping: (34 2 0x1388), (36 2 0x1389)
never: (34 2 0x270f), (36 2 0x2710)
END
NODE_TABLE
alice 02:00:00:00:00:0a 10.0.0.10
bob 02:00:00:00:00:0b 10.0.0.11
END
SCENARIO dead_filter
PING: (udp_ping, alice, bob, RECV)
GHOST: (never, alice, bob, RECV)
(TRUE) >> ENABLE_CNTR( PING );
(TRUE) >> ENABLE_CNTR( GHOST );
((GHOST > 0)) >> DROP( never, alice, bob, SEND );
END
|}

let test_coverage_dead_filter () =
  let testbed, tables, _result =
    run_observed ~script:dead_filter_script ~pings:4 ()
  in
  let cov = Cov.analyze tables (Testbed.events testbed) in
  (match Cov.dead_filters cov with
  | [ f ] -> check Alcotest.string "the unmatched filter" "never" f.Cov.fname
  | l -> Alcotest.failf "expected 1 dead filter, got %d" (List.length l));
  match Cov.dead_counters cov with
  | [ c ] -> check Alcotest.string "its counter is dead too" "GHOST" c.Cov.cname
  | l -> Alcotest.failf "expected 1 dead counter, got %d" (List.length l)

(* --- Spans / Chrome trace --- *)

let test_spans_grouping () =
  let testbed, _tables, _result = run_observed () in
  let events = Testbed.events testbed in
  let spans = Spans.spans events in
  check Alcotest.bool "spans exist" true (spans <> []);
  List.iter
    (fun (s : Spans.span) ->
      check Alcotest.bool "start <= end" true (s.Spans.t_start <= s.Spans.t_end);
      List.iter
        (fun (e : Ev.t) ->
          check Alcotest.int "step belongs to its root" s.Spans.root.Ev.seq
            e.Ev.cause)
        s.Spans.steps)
    spans;
  (* the spans partition the log: every event lands in exactly one *)
  let total =
    List.fold_left
      (fun acc (s : Spans.span) -> acc + 1 + List.length s.Spans.steps)
      0 spans
  in
  check Alcotest.int "partition of the log" (List.length events) total

let test_chrome_trace () =
  let testbed, tables, _result = run_observed () in
  let doc = Spans.to_chrome_json tables (Testbed.events testbed) in
  let v = J.parse_exn doc in
  let evs = Option.get (Option.bind (J.mem "traceEvents" v) J.to_list) in
  let ph e = Option.bind (J.mem "ph" e) J.to_string in
  let complete = List.filter (fun e -> ph e = Some "X") evs in
  check Alcotest.bool "at least one complete span" true
    (List.length complete >= 1);
  (* process metadata names both nodes *)
  let names =
    List.filter_map
      (fun e ->
        if ph e = Some "M" then
          Option.bind (J.mem "args" e) (fun a ->
              Option.bind (J.mem "name" a) J.to_string)
        else None)
      evs
  in
  check Alcotest.bool "alice is a process" true (List.mem "alice" names);
  check Alcotest.bool "bob is a process" true (List.mem "bob" names);
  List.iter
    (fun e ->
      match Option.bind (J.mem "dur" e) J.to_float with
      | Some d -> check Alcotest.bool "dur positive" true (d > 0.0)
      | None -> Alcotest.fail "complete event without dur")
    complete

(* the condition is evaluated away from the counter's owner, so a
   TERM_STATUS control frame must cross the wire: the trace gets a flow *)
let cross_node_script =
  {|
FILTER_TABLE
udp_ping: (34 2 0x1388), (36 2 0x1389)
END
NODE_TABLE
alice 02:00:00:00:00:0a 10.0.0.10
bob 02:00:00:00:00:0b 10.0.0.11
END
SCENARIO cross_node
PING: (udp_ping, alice, bob, RECV)
(TRUE) >> ENABLE_CNTR( PING );
((PING > 2)) >> DROP( udp_ping, alice, bob, SEND );
END
|}

let test_chrome_flows () =
  let testbed, tables, _result = run_observed ~script:cross_node_script () in
  let events = Testbed.events testbed in
  let pairs = Vw_core.Explain.control_pairs events in
  check Alcotest.bool "control edges found" true (pairs <> []);
  List.iter
    (fun ((sent : Vw_obs.Event.t), (recv : Vw_obs.Event.t)) ->
      check Alcotest.bool "send precedes receive" true (sent.seq < recv.seq))
    pairs;
  let v = J.parse_exn (Spans.to_chrome_json tables events) in
  let evs = Option.get (Option.bind (J.mem "traceEvents" v) J.to_list) in
  let count p =
    List.length
      (List.filter
         (fun e -> Option.bind (J.mem "ph" e) J.to_string = Some p)
         evs)
  in
  check Alcotest.bool "flow starts" true (count "s" >= 1);
  check Alcotest.int "starts and finishes pair up" (count "s") (count "f")

(* --- Html_report --- *)

let test_html_report () =
  let testbed, tables, result = run_observed () in
  let metrics = Option.map Mv.of_registry (Testbed.metrics testbed) in
  let html =
    Vw_report.Html_report.render ~tables ~events:(Testbed.events testbed)
      ?metrics ~result ()
  in
  check Alcotest.bool "coverage section" true (contains html "FSL coverage");
  check Alcotest.bool "timeline svg" true (contains html "<svg");
  check Alcotest.bool "scenario named" true (contains html "udp_drop_dup");
  (* self-contained: no external fetches, no scripts *)
  check Alcotest.bool "no http refs" false
    (contains html "http://" || contains html "https://");
  check Alcotest.bool "no script tags" false (contains html "<script")

let flag_error_script =
  {|
FILTER_TABLE
udp_ping: (34 2 0x1388), (36 2 0x1389)
END
NODE_TABLE
alice 02:00:00:00:00:0a 10.0.0.10
bob 02:00:00:00:00:0b 10.0.0.11
END
SCENARIO flag_error
PING: (udp_ping, alice, bob, RECV)
(TRUE) >> ENABLE_CNTR( PING );
((PING > 3)) >> FLAG_ERROR;
END
|}

let test_html_flag_error_chain () =
  let testbed, tables, result =
    run_observed ~script:flag_error_script ~pings:6 ()
  in
  check Alcotest.bool "scenario flagged an error" true
    (result.Scenario.errors <> []);
  let html =
    Vw_report.Html_report.render ~tables ~events:(Testbed.events testbed)
      ~result ()
  in
  check Alcotest.bool "error section present" true (contains html "FLAG_ERROR");
  check Alcotest.bool "causal chain rendered" true (contains html "fired")

(* --- Metrics_view: live registry vs reloaded vw-metrics/1 --- *)

let test_metrics_view_offline () =
  let testbed, _tables, _result = run_observed () in
  let mx = Option.get (Testbed.metrics testbed) in
  let live = Mv.of_registry mx in
  match Mv.of_json (Vw_obs.Metrics.to_json mx) with
  | Error e -> Alcotest.failf "of_json: %s" e
  | Ok offline ->
      check Alcotest.int "same counters"
        (List.length live.Mv.counters)
        (List.length offline.Mv.counters);
      check Alcotest.int "same histograms"
        (List.length live.Mv.histograms)
        (List.length offline.Mv.histograms);
      List.iter2
        (fun (na, (ha : Mv.hist)) (nb, (hb : Mv.hist)) ->
          check Alcotest.string "histogram name" na nb;
          check Alcotest.int "total" ha.Mv.total hb.Mv.total;
          check Alcotest.int "sum" ha.Mv.sum hb.Mv.sum;
          check Alcotest.int "buckets" (Array.length ha.Mv.counts)
            (Array.length hb.Mv.counts))
        live.Mv.histograms offline.Mv.histograms

let suite =
  [
    ( "report.json",
      [
        Alcotest.test_case "values and accessors" `Quick test_json_values;
        Alcotest.test_case "malformed input" `Quick test_json_errors;
        Alcotest.test_case "nesting is bounded" `Quick test_json_depth;
      ] );
    ( "report.events_io",
      [
        Alcotest.test_case "to_json round-trips" `Quick test_events_roundtrip;
        Alcotest.test_case "bad input is an error" `Quick test_events_bad_input;
        Alcotest.test_case "vw-events/2 autodetected" `Quick
          test_events_binary_autodetect;
      ] );
    ( "report.coverage",
      [
        Alcotest.test_case "live = offline" `Quick
          test_coverage_live_vs_offline;
        Alcotest.test_case "stages per rule" `Quick test_coverage_stages;
        Alcotest.test_case "vw-cover/1 shape" `Quick test_coverage_json_schema;
        Alcotest.test_case "dead filter detection" `Quick
          test_coverage_dead_filter;
      ] );
    ( "report.spans",
      [
        Alcotest.test_case "causal grouping partitions the log" `Quick
          test_spans_grouping;
        Alcotest.test_case "chrome trace shape" `Quick test_chrome_trace;
        Alcotest.test_case "cross-node flow arrows" `Quick test_chrome_flows;
      ] );
    ( "report.html",
      [
        Alcotest.test_case "self-contained report" `Quick test_html_report;
        Alcotest.test_case "FLAG_ERROR causal chain" `Quick
          test_html_flag_error_chain;
      ] );
    ( "report.metrics_view",
      [
        Alcotest.test_case "registry = reloaded json" `Quick
          test_metrics_view_offline;
      ] );
  ]
