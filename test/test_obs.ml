(* Tests for the observability layer: flight recorder, metrics registry,
   end-to-end event emission with causal links, the Counter_changed replay
   property, and Explain's causal-chain / furthest-stage analysis. *)

open Vw_sim
module Rec = Vw_obs.Recorder
module Ev = Vw_obs.Event
module Mx = Vw_obs.Metrics
module Testbed = Vw_core.Testbed
module Scenario = Vw_core.Scenario
module Explain = Vw_core.Explain
module Host = Vw_stack.Host

let check = Alcotest.check
let qtest = Test_seed.qtest

(* --- recorder unit tests --- *)

let test_recorder_basics () =
  let seq = ref 0 in
  let now = ref Simtime.zero in
  let r = Rec.create ~capacity:16 ~node:"n" ~clock:(fun () -> !now) ~seq () in
  check Alcotest.bool "enabled" true (Rec.enabled r);
  check Alcotest.bool "null disabled" false (Rec.enabled Rec.null);
  check Alcotest.int "null emit is -1" (-1)
    (Rec.emit Rec.null (Ev.Condition_rose { did = 0 }));
  let root =
    Rec.emit_root r (Ev.Packet_classified { point = Ev.Ingress; fid = 0 })
  in
  now := Simtime.ms 1;
  let child = Rec.emit r (Ev.Counter_changed { cid = 0; value = 1; delta = 1 }) in
  check Alcotest.int "cause tracks root" root (Rec.cause r);
  Rec.set_cause r (-1);
  let orphan = Rec.emit r (Ev.Term_flipped { tid = 0; status = true }) in
  match Rec.events r with
  | [ e0; e1; e2 ] ->
      check Alcotest.int "root is self-caused" root e0.Ev.cause;
      check Alcotest.int "root seq" root e0.Ev.seq;
      check Alcotest.int "child seq" child e1.Ev.seq;
      check Alcotest.int "child caused by root" root e1.Ev.cause;
      check Alcotest.int "child stamped later" (Simtime.ms 1) e1.Ev.time;
      check Alcotest.int "outside context: own cause" orphan e2.Ev.cause;
      check Alcotest.string "node name" "n" e0.Ev.node
  | es -> Alcotest.failf "expected 3 events, got %d" (List.length es)

let test_recorder_wrap () =
  let seq = ref 0 in
  let r =
    Rec.create ~capacity:4 ~node:"n" ~clock:(fun () -> Simtime.zero) ~seq ()
  in
  for i = 0 to 9 do
    ignore (Rec.emit_root r (Ev.Condition_rose { did = i }))
  done;
  check Alcotest.int "bounded" 4 (Rec.length r);
  check Alcotest.int "dropped oldest" 6 (Rec.dropped r);
  check Alcotest.bool "truncated" true (Rec.truncated r);
  check
    (Alcotest.list Alcotest.int)
    "newest four, oldest first" [ 6; 7; 8; 9 ]
    (List.map (fun e -> e.Ev.seq) (Rec.events r));
  Rec.clear r;
  check Alcotest.int "cleared" 0 (Rec.length r);
  check Alcotest.bool "flag reset" false (Rec.truncated r)

let test_recorders_share_seq () =
  let seq = ref 0 in
  let clock () = Simtime.zero in
  let a = Rec.create ~node:"a" ~clock ~seq () in
  let b = Rec.create ~node:"b" ~clock ~seq () in
  let s0 = Rec.emit_root a (Ev.Condition_rose { did = 0 }) in
  let s1 = Rec.emit_root b (Ev.Condition_rose { did = 1 }) in
  let s2 = Rec.emit_root a (Ev.Condition_rose { did = 2 }) in
  check (Alcotest.list Alcotest.int) "interleaved, globally unique" [ 0; 1; 2 ]
    [ s0; s1; s2 ]

(* --- vw-events/2 binary codec and sink --- *)

module Binlog = Vw_obs.Binlog
module Strtab = Vw_obs.Strtab

let ev_t : Ev.t Alcotest.testable =
  Alcotest.testable
    (fun fmt e -> Format.pp_print_string fmt (Ev.to_json e))
    ( = )

(* a body of every kind, with both control payload shapes *)
let sample_bodies =
  [
    Ev.Packet_classified { point = Ev.Ingress; fid = 3 };
    Ev.Counter_changed { cid = 1; value = -7; delta = -9 };
    Ev.Term_flipped { tid = 2; status = true };
    Ev.Condition_rose { did = 4 };
    Ev.Action_fired { did = 4; aid = 5 };
    Ev.Fault_applied { did = 4; aid = 5; fault = Ev.Reorder };
    Ev.Control_sent
      { dst_nid = 1; ctl = Ev.C_counter_update { cid = 1; value = 12 } };
    Ev.Control_received { ctl = Ev.C_term_status { tid = 2; status = false } };
    Ev.Report_raised { nid = 0; rule = Some 2 };
    Ev.Report_raised { nid = 1; rule = None };
  ]

(* A wrapped ring retains exactly the newest [capacity] events, each
   decoded intact, and counts every overwritten one — what keeps the
   stderr warning and the obs.events_truncated metric honest. *)
let test_binary_wrap_tail () =
  let seq = ref 0 in
  let now = ref Simtime.zero in
  let r = Rec.create ~capacity:4 ~node:"n" ~clock:(fun () -> !now) ~seq () in
  (* every third event is a root; the others carry the latest root's seq
     as their cause *)
  List.iteri
    (fun i body ->
      now := Simtime.ms i;
      if i mod 3 = 0 then ignore (Rec.emit_root r body)
      else ignore (Rec.emit r body))
    sample_bodies;
  let n = List.length sample_bodies in
  let expected =
    List.filteri (fun i _ -> i >= n - 4) sample_bodies
    |> List.mapi (fun k body ->
           let i = n - 4 + k in
           let cause = i - (i mod 3) in
           { Ev.seq = i; time = Simtime.ms i; node = "n"; nid = -1; cause; body })
  in
  check Alcotest.int "dropped = n - capacity" (n - 4) (Rec.dropped r);
  check Alcotest.bool "truncated" true (Rec.truncated r);
  check (Alcotest.list ev_t) "newest four: seq, time, cause, body" expected
    (Rec.events r)

(* Each specialized no-allocation emitter must record exactly what the
   generic [emit] would for the equivalent body. *)
let test_emitter_parity () =
  let cases =
    [
      ( true,
        Ev.Packet_classified { point = Ev.Egress; fid = 7 },
        fun r -> Rec.emit_packet_classified r ~point:Ev.Egress ~fid:7 );
      ( false,
        Ev.Counter_changed { cid = 3; value = -2; delta = -5 },
        fun r -> Rec.emit_counter_changed r ~cid:3 ~value:(-2) ~delta:(-5) );
      ( false,
        Ev.Term_flipped { tid = 1; status = false },
        fun r -> Rec.emit_term_flipped r ~tid:1 ~status:false );
      ( false,
        Ev.Condition_rose { did = 2 },
        fun r -> Rec.emit_condition_rose r ~did:2 );
      ( false,
        Ev.Action_fired { did = 2; aid = 9 },
        fun r -> Rec.emit_action_fired r ~did:2 ~aid:9 );
      ( false,
        Ev.Fault_applied { did = 2; aid = 9; fault = Ev.Modify },
        fun r -> Rec.emit_fault_applied r ~did:2 ~aid:9 ~fault:Ev.Modify );
      ( false,
        Ev.Control_sent { dst_nid = 1; ctl = Ev.C_report_error { nid = 1; rule = 0 } },
        fun r ->
          Rec.emit_control_sent r ~dst_nid:1
            ~ctl:(Ev.C_report_error { nid = 1; rule = 0 }) );
      ( true,
        Ev.Control_received { ctl = Ev.C_var_bind { vid = 4 } },
        fun r -> Rec.emit_control_received r ~ctl:(Ev.C_var_bind { vid = 4 }) );
      ( false,
        Ev.Report_raised { nid = 0; rule = Some 1 },
        fun r -> Rec.emit_report_raised r ~nid:0 ~rule:(Some 1) );
      ( false,
        Ev.Report_raised { nid = 1; rule = None },
        fun r -> Rec.emit_report_raised r ~nid:1 ~rule:None );
    ]
  in
  (* the packet_classified emitter is a root; give every recorder a live
     causal context first so root/non-root behaviour is observable *)
  let record emitters =
    let seq = ref 0 in
    let r = Rec.create ~node:"n" ~clock:(fun () -> Simtime.ms 3) ~seq () in
    ignore (Rec.emit_packet_classified r ~point:Ev.Ingress ~fid:0);
    List.iter (fun f -> ignore (f r)) emitters;
    Rec.events r
  in
  let specialized = record (List.map (fun (_, _, f) -> f) cases) in
  let generic =
    record
      (List.map
         (fun (root, body, _) r ->
           if root then Rec.emit_root r body else Rec.emit r body)
         cases)
  in
  check (Alcotest.list ev_t) "specialized = generic" generic specialized

(* the point of the binary sink: zero words allocated per event once the
   ring has reached steady state *)
let test_binary_emit_no_alloc () =
  let seq = ref 0 in
  let r =
    Rec.create ~capacity:64 ~node:"n" ~clock:(fun () -> Simtime.zero) ~seq ()
  in
  (* warm up past all ring growth *)
  for _ = 1 to 256 do
    ignore (Rec.emit_packet_classified r ~point:Ev.Ingress ~fid:1)
  done;
  let w0 = Gc.minor_words () in
  for i = 1 to 1000 do
    ignore (Rec.emit_packet_classified r ~point:Ev.Ingress ~fid:1);
    ignore (Rec.emit_counter_changed r ~cid:0 ~value:i ~delta:1);
    ignore (Rec.emit_fault_applied r ~did:0 ~aid:1 ~fault:Ev.Drop)
  done;
  let words = Gc.minor_words () -. w0 in
  if words > 64.0 then
    Alcotest.failf "binary emit allocated %.0f minor words over 3000 events"
      words

(* interned names up to the u16 length limit survive; one byte more is
   rejected at intern time, not at export time *)
let test_strtab_limits () =
  let long = String.make 65535 'x' in
  let e =
    {
      Ev.seq = 0;
      time = Simtime.zero;
      node = long;
      nid = 0;
      cause = 0;
      body = Ev.Condition_rose { did = 0 };
    }
  in
  let blob = Binlog.of_events ~scenario:"s" ~recorded:1 ~dropped:0 [ e ] in
  (match Binlog.of_string blob with
  | Ok (_, [ d ]) -> check Alcotest.string "max-length name" long d.Ev.node
  | Ok _ -> Alcotest.fail "wrong event count"
  | Error err -> Alcotest.failf "decode: %s" err);
  let tab = Strtab.create () in
  Alcotest.check_raises "oversized name rejected"
    (Invalid_argument "Strtab.intern: string longer than 65535 bytes")
    (fun () -> ignore (Strtab.intern tab (String.make 65536 'y')))

(* corrupt inputs fail loudly, naming the problem *)
let test_binlog_bad_input () =
  let good =
    Binlog.of_events ~scenario:"s" ~recorded:1 ~dropped:0
      [
        {
          Ev.seq = 0;
          time = Simtime.zero;
          node = "n";
          nid = 0;
          cause = 0;
          body = Ev.Condition_rose { did = 0 };
        };
      ]
  in
  (match Binlog.of_string (String.sub good 0 (String.length good - 1)) with
  | Ok _ -> Alcotest.fail "accepted truncated file"
  | Error _ -> ());
  (match Binlog.of_string "VWEV9\x00rest" with
  | Ok _ -> Alcotest.fail "accepted bad magic"
  | Error _ -> ());
  (* a bare 36-byte header claiming 10M strings is refused before the
     string table is allocated *)
  let huge = Bytes.make 36 '\000' in
  Bytes.blit_string Binlog.magic 0 huge 0 6;
  Bytes.set huge 6 (Char.chr Binlog.slot_bytes);
  Bytes.set_int32_le huge 28 10_000_000l;
  let allocated_before = Gc.allocated_bytes () in
  (match Binlog.of_string (Bytes.to_string huge) with
  | Ok _ -> Alcotest.fail "accepted 10M strings in no bytes"
  | Error _ -> ());
  let allocated = Gc.allocated_bytes () -. allocated_before in
  check Alcotest.bool "refused before allocating (< 1 MB)" true
    (allocated < 1e6);
  (* a kind byte outside 0..8 names the record *)
  let b = Bytes.of_string good in
  let slot_off = String.length good - Binlog.slot_bytes in
  Bytes.set b (slot_off + Binlog.o_kind) '\xff';
  match Binlog.of_string (Bytes.to_string b) with
  | Ok _ -> Alcotest.fail "accepted bad kind byte"
  | Error e ->
      check Alcotest.bool "error names the record" true
        (String.length e > 0)

(* --- property: decode . encode = id over the full field ranges --- *)

let gen_event =
  let open QCheck.Gen in
  let id = int_range 0 1000 in
  let payload =
    frequency
      [
        (4, int);
        (1, oneofl [ min_int; max_int; 0; 1; -1; 1 lsl 62; -(1 lsl 62) ]);
      ]
  in
  let gen_ctl =
    oneof
      [
        return Ev.C_init;
        return Ev.C_start;
        map2 (fun cid value -> Ev.C_counter_update { cid; value }) id payload;
        map2 (fun tid status -> Ev.C_term_status { tid; status }) id bool;
        map (fun vid -> Ev.C_var_bind { vid }) id;
        map (fun nid -> Ev.C_report_stop { nid }) id;
        map2 (fun nid rule -> Ev.C_report_error { nid; rule }) id id;
      ]
  in
  let gen_body =
    oneof
      [
        map2
          (fun point fid -> Ev.Packet_classified { point; fid })
          (oneofl [ Ev.Ingress; Ev.Egress ])
          id;
        map3
          (fun cid value delta -> Ev.Counter_changed { cid; value; delta })
          id payload payload;
        map2 (fun tid status -> Ev.Term_flipped { tid; status }) id bool;
        map (fun did -> Ev.Condition_rose { did }) id;
        map2 (fun did aid -> Ev.Action_fired { did; aid }) id id;
        map3
          (fun did aid fault -> Ev.Fault_applied { did; aid; fault })
          id id
          (oneofl [ Ev.Drop; Ev.Delay; Ev.Reorder; Ev.Dup; Ev.Modify ]);
        map2 (fun dst_nid ctl -> Ev.Control_sent { dst_nid; ctl }) id gen_ctl;
        map (fun ctl -> Ev.Control_received { ctl }) gen_ctl;
        map2
          (fun nid rule -> Ev.Report_raised { nid; rule })
          id
          (oneof [ return None; map (fun r -> Some r) id ]);
        map2 (fun xid ok -> Ev.Expect_checked { xid; ok }) id bool;
      ]
  in
  let u48 =
    map2 (fun hi lo -> (hi lsl 24) lor lo) (int_bound 0xffffff)
      (int_bound 0xffffff)
  in
  map
    (fun (seq, (time, (cause, (nid, body)))) ->
      { Ev.seq; time; node = "node-0"; nid; cause; body })
    (pair u48 (pair payload (pair u48 (pair (int_range (-32768) 32767) gen_body))))

let slot_roundtrip_prop =
  QCheck.Test.make ~name:"vw-events/2 slot decode . encode = id" ~count:500
    (QCheck.make gen_event ~print:Ev.to_json)
    (fun e ->
      let buf = Buffer.create Binlog.slot_bytes in
      Binlog.add_slot_of_event buf ~sid:0 e;
      let bytes = Buffer.to_bytes buf in
      Bytes.length bytes = Binlog.slot_bytes
      && Binlog.slot_sid bytes ~off:0 = 0
      &&
      match Binlog.decode_slot bytes ~off:0 ~node:e.Ev.node with
      | Ok d -> d = e
      | Error _ -> false)

(* the hot-path encoder open-coded in the recorder must write the same
   bytes as Binlog.encode_slot (via add_slot_of_event) *)
let recorder_matches_codec_prop =
  QCheck.Test.make ~name:"recorder hot path writes Binlog.encode_slot bytes"
    ~count:200
    (QCheck.make gen_event ~print:Ev.to_json)
    (fun e ->
      let seq = ref e.Ev.seq in
      let r =
        Rec.create ~node:e.Ev.node ~clock:(fun () -> e.Ev.time) ~seq ()
      in
      Rec.set_nid r e.Ev.nid;
      (* force the generated cause: pretend an earlier root set it *)
      Rec.set_cause r e.Ev.cause;
      ignore (Rec.emit r e.Ev.body);
      let via_recorder = Buffer.create Binlog.slot_bytes in
      Rec.append_binary via_recorder r;
      let via_codec = Buffer.create Binlog.slot_bytes in
      Binlog.add_slot_of_event via_codec ~sid:(Rec.sid r)
        { e with Ev.cause = (if e.Ev.cause >= 0 then e.Ev.cause else e.Ev.seq) };
      Buffer.contents via_recorder = Buffer.contents via_codec)

(* --- metrics unit tests --- *)

let test_metrics_counters () =
  let m = Mx.create () in
  let c = Mx.counter m "x" in
  Mx.incr c;
  Mx.incr ~by:4 c;
  check Alcotest.int "incr" 5 (Mx.value c);
  Mx.set c 2;
  check Alcotest.int "set" 2 (Mx.value c);
  check Alcotest.bool "same handle on re-register" true (c == Mx.counter m "x");
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "listed in registration order"
    [ ("x", 2) ]
    (Mx.counters m);
  (* the null registry hands out inert handles *)
  let cn = Mx.counter Mx.null "x" in
  Mx.incr ~by:100 cn;
  check Alcotest.int "null counter stays 0" 0 (Mx.value cn);
  check Alcotest.bool "null registry disabled" false (Mx.enabled Mx.null);
  (* a name cannot be both a counter and a histogram *)
  Alcotest.check_raises "kind collision"
    (Invalid_argument "Metrics.histogram: \"x\" is a counter") (fun () ->
      ignore (Mx.histogram m "x"))

let test_metrics_histograms () =
  let m = Mx.create () in
  let h = Mx.histogram m ~buckets:[| 1; 4; 16 |] "h" in
  List.iter (Mx.observe h) [ 0; 1; 2; 4; 5; 16; 17; 1000 ];
  let bounds, counts = Mx.bucket_counts h in
  check (Alcotest.list Alcotest.int) "bounds sorted" [ 1; 4; 16 ]
    (Array.to_list bounds);
  (* inclusive upper bounds: 0,1 <=1; 2,4 <=4; 5,16 <=16; 17,1000 overflow *)
  check (Alcotest.list Alcotest.int) "bucket counts + overflow" [ 2; 2; 2; 2 ]
    (Array.to_list counts);
  check Alcotest.int "total" 8 (Mx.total h);
  check Alcotest.int "sum" 1045 (Mx.sum h);
  check Alcotest.int "max" 1000 (Mx.max_observed h)

let test_metrics_json () =
  let m = Mx.create () in
  Mx.set (Mx.counter m "engine.total") 7;
  Mx.observe (Mx.histogram m ~buckets:[| 2 |] "depth") 1;
  let json = Mx.to_json m in
  let has needle =
    let nl = String.length needle and jl = String.length json in
    let rec go i = i + nl <= jl && (String.sub json i nl = needle || go (i + 1)) in
    go 0
  in
  check Alcotest.bool "schema tag" true (has "\"schema\": \"vw-metrics/1\"");
  check Alcotest.bool "counter value" true (has "\"engine.total\": 7");
  check Alcotest.bool "histogram bounds" true (has "\"bounds\": [2]")

(* --- end-to-end: the quickstart scenario with the recorder on --- *)

let compile src =
  match Vw_fsl.Compile.parse_and_compile src with
  | Ok t -> t
  | Error e -> Alcotest.fail e

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

let run_observed ?(script = Vw_scripts.udp_drop_dup) ?(pings = 10) ?(seed = 42)
    ?(observe = true) () =
  let tables = compile script in
  let config = { Testbed.default_config with seed } in
  let testbed = Testbed.of_node_table ~config tables in
  if observe then Testbed.enable_observability testbed;
  match
    Scenario.run testbed ~script ~max_duration:(Simtime.sec 5.0)
      ~workload:(udp_ping_workload ~pings)
  with
  | Ok r -> (testbed, tables, r)
  | Error e -> Alcotest.fail e

(* full-file round-trip: events -> vw-events/2 bytes -> events, with the
   JSONL rendering (the vw-events/1 contract) as the equality witness *)
let test_binary_file_roundtrip () =
  let testbed, _tables, _result = run_observed () in
  let events = Testbed.events testbed in
  check Alcotest.bool "run produced events" true (List.length events > 20);
  let blob =
    Binlog.of_events ~scenario:"udp_drop_dup"
      ~recorded:(List.length events)
      ~dropped:0 events
  in
  check Alcotest.bool "sniffs as binary" true (Binlog.is_binary blob);
  match Binlog.of_string blob with
  | Error e -> Alcotest.failf "decode: %s" e
  | Ok (meta, decoded) ->
      check Alcotest.string "scenario" "udp_drop_dup" meta.Binlog.scenario;
      check Alcotest.int "recorded" (List.length events) meta.Binlog.recorded;
      check Alcotest.int "dropped" 0 meta.Binlog.dropped;
      check (Alcotest.list ev_t) "typed events survive" events decoded;
      List.iter2
        (fun a b ->
          check Alcotest.string "to_json identical" (Ev.to_json a)
            (Ev.to_json b))
        events decoded

let test_events_end_to_end () =
  let testbed, _tables, result = run_observed () in
  let events = Testbed.events testbed in
  check Alcotest.bool "events recorded" true (events <> []);
  check Alcotest.int "result agrees with testbed"
    (Testbed.events_recorded testbed)
    result.Scenario.events_recorded;
  check Alcotest.int "nothing dropped" 0 (Testbed.events_dropped testbed);
  (* quickstart exercises the whole pipeline: both faults fire *)
  let kinds =
    List.sort_uniq compare (List.map (fun e -> Ev.kind_name e.Ev.body) events)
  in
  List.iter
    (fun k ->
      check Alcotest.bool (Printf.sprintf "kind %s present" k) true
        (List.mem k kinds))
    [
      "packet_classified";
      "counter_changed";
      "term_flipped";
      "condition_rose";
      "action_fired";
      "fault_applied";
      "control_sent";
      "control_received";
    ];
  (* merged log invariants: seqs dense from 0, each cause points at an
     earlier (or same) event that is a root *)
  let by_seq = Hashtbl.create 256 in
  List.iter (fun e -> Hashtbl.replace by_seq e.Ev.seq e) events;
  List.iteri
    (fun i e ->
      check Alcotest.int "dense seq" i e.Ev.seq;
      check Alcotest.bool "cause precedes" true (e.Ev.cause <= e.Ev.seq);
      match Hashtbl.find_opt by_seq e.Ev.cause with
      | None -> Alcotest.failf "cause %d of #%d missing" e.Ev.cause e.Ev.seq
      | Some root ->
          check Alcotest.int "cause is a root" root.Ev.seq root.Ev.cause)
    events;
  (* every event's JSON line parses far enough to round-trip kind + seq *)
  List.iter
    (fun e ->
      let js = Ev.to_json e in
      let has needle =
        let nl = String.length needle and jl = String.length js in
        let rec go i =
          i + nl <= jl && (String.sub js i nl = needle || go (i + 1))
        in
        go 0
      in
      check Alcotest.bool "json has seq" true
        (has (Printf.sprintf "\"seq\":%d" e.Ev.seq));
      check Alcotest.bool "json has kind" true
        (has (Printf.sprintf "\"kind\":\"%s\"" (Ev.kind_name e.Ev.body))))
    events

let test_metrics_end_to_end () =
  let testbed, _tables, _result = run_observed () in
  let mx =
    match Testbed.metrics testbed with
    | Some m -> m
    | None -> Alcotest.fail "metrics missing"
  in
  (* the registry's per-node counters mirror Fie.stats exactly *)
  List.iter
    (fun node ->
      let stats = Vw_engine.Fie.stats (Testbed.fie node) in
      List.iter
        (fun (field, v) ->
          let key =
            Printf.sprintf "node.%s.%s" (Testbed.name node) field
          in
          check Alcotest.int key v (Mx.value (Mx.counter mx key)))
        (Vw_engine.Fie.stats_fields stats))
    (Testbed.nodes testbed);
  (* aggregates are the cross-node sums *)
  let total field =
    List.fold_left
      (fun acc node ->
        acc
        + List.assoc field
            (Vw_engine.Fie.stats_fields
               (Vw_engine.Fie.stats (Testbed.fie node))))
      0 (Testbed.nodes testbed)
  in
  List.iter
    (fun field ->
      check Alcotest.int ("engine." ^ field) (total field)
        (Mx.value (Mx.counter mx ("engine." ^ field))))
    [ "packets_inspected"; "packets_matched"; "control_sent"; "faults_drop" ];
  (* the histograms saw traffic *)
  let h name = List.assoc name (Mx.histograms mx) in
  check Alcotest.bool "cascade depth observed" true
    (Mx.total (h "fie.cascade_depth") > 0);
  check Alcotest.bool "filters scanned observed" true
    (Mx.total (h "fie.filters_scanned_per_packet") > 0);
  (* stats_fields covers every stats field: spot-check the full 17 *)
  check Alcotest.int "stats_fields arity" 17
    (List.length
       (Vw_engine.Fie.stats_fields
          (Vw_engine.Fie.stats (Testbed.fie (List.hd (Testbed.nodes testbed))))))

let test_disabled_is_silent () =
  let testbed, _tables, result = run_observed ~observe:false () in
  check Alcotest.bool "observability off" false
    (Testbed.observability_enabled testbed);
  check (Alcotest.list Alcotest.int) "no events" []
    (List.map (fun e -> e.Ev.seq) (Testbed.events testbed));
  check Alcotest.int "result says zero" 0 result.Scenario.events_recorded;
  check Alcotest.bool "no registry" true (Testbed.metrics testbed = None);
  (* the engines still did their job *)
  check Alcotest.bool "packets still matched" true
    ((Vw_engine.Fie.stats (Testbed.fie (Testbed.node testbed "bob")))
       .Vw_engine.Fie.packets_matched > 0)

(* --- property: replaying Counter_changed deltas reproduces the final
   counter dumps --- *)

let replay_matches_dump ~pings ~seed =
  let testbed, tables, _result = run_observed ~pings ~seed () in
  let n_counters = Array.length tables.Vw_fsl.Tables.counters in
  List.for_all
    (fun node ->
      let replayed = Array.make n_counters 0 in
      List.iter
        (fun e ->
          match e.Ev.body with
          | Ev.Counter_changed { cid; delta; _ }
            when String.equal e.Ev.node (Testbed.name node) ->
              replayed.(cid) <- replayed.(cid) + delta
          | _ -> ())
        (Testbed.events testbed);
      List.for_all
        (fun (cname, value, _enabled) ->
          match Vw_fsl.Tables.counter_by_name tables cname with
          | Some c -> replayed.(c.Vw_fsl.Tables.cid) = value
          | None -> false)
        (Vw_engine.Fie.counters (Testbed.fie node)))
    (Testbed.nodes testbed)

let counter_replay_prop =
  QCheck.Test.make ~name:"replaying Counter_changed deltas = final dumps"
    ~count:8
    QCheck.(pair (int_range 1 16) (int_range 0 1000))
    (fun (pings, seed) -> replay_matches_dump ~pings ~seed)

(* --- the merged event stream of a 4-node Rether ring --- *)

let rether_ring_script =
  {|
FILTER_TABLE
tr_token: (12 2 0x9900), (14 2 0x0001)
END
NODE_TABLE
node1 02:00:00:00:00:01 10.0.0.1
node2 02:00:00:00:00:02 10.0.0.2
node3 02:00:00:00:00:03 10.0.0.3
node4 02:00:00:00:00:04 10.0.0.4
END
SCENARIO rether_merge
TokensTo2: (tr_token, node1, node2, RECV)
TokensTo4: (tr_token, node2, node4, RECV)
(TRUE) >> ENABLE_CNTR( TokensTo2 );
((TokensTo2 = 2)) >> FAIL( node3 );
     ENABLE_CNTR( TokensTo4 );
END
|}

(* [Testbed.events] merges the per-node rings; the reference is every
   node's events, concatenated and sorted by seq *)
let test_events_merge_rings () =
  let tables = compile rether_ring_script in
  let testbed = Testbed.of_node_table tables in
  Testbed.enable_observability ~capacity:65536 testbed;
  (match
     Scenario.run testbed ~script:rether_ring_script
       ~max_duration:(Simtime.sec 1.0)
       ~workload:
         (Vw_conform.Workloads.make Vw_conform.Workloads.Rether_ring
            ~bytes:4096)
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let rings =
    List.map
      (fun n ->
        match Testbed.recorder testbed (Testbed.name n) with
        | Some r -> Rec.events r
        | None -> Alcotest.failf "%s has no recorder" (Testbed.name n))
      (Testbed.nodes testbed)
  in
  check Alcotest.int "four rings" 4 (List.length rings);
  List.iteri
    (fun i ring ->
      check Alcotest.bool
        (Printf.sprintf "ring %d recorded events" i)
        true (ring <> []))
    rings;
  let reference =
    List.sort (fun a b -> compare a.Ev.seq b.Ev.seq) (List.concat rings)
  in
  check (Alcotest.list ev_t) "merge = sorted concatenation" reference
    (Testbed.events testbed)

(* --- Explain --- *)

let test_explain_fired () =
  let testbed, tables, _result = run_observed () in
  let analysis = Explain.analyze tables (Testbed.events testbed) in
  (* rule 1 is the DROP rule: (PING > 2) && (PING <= 4) *)
  match Explain.explain analysis ~rule:1 with
  | Explain.Not_fired _ -> Alcotest.fail "drop rule should have fired"
  | Explain.Fired { rise; chain } -> (
      (match rise.Ev.body with
      | Ev.Condition_rose _ -> ()
      | b -> Alcotest.failf "rise is %s" (Ev.kind_name b));
      match chain with
      | [] -> Alcotest.fail "empty chain"
      | segments ->
          let first_seg = List.hd segments in
          let origin = List.hd first_seg in
          check Alcotest.int "origin is a root" origin.Ev.seq origin.Ev.cause;
          let last_seg = List.nth segments (List.length segments - 1) in
          let last_ev = List.nth last_seg (List.length last_seg - 1) in
          check Alcotest.int "chain ends at the rise" rise.Ev.seq
            last_ev.Ev.seq;
          let all = List.concat segments in
          let has_kind k =
            List.exists (fun e -> Ev.kind_name e.Ev.body = k) all
          in
          check Alcotest.bool "chain shows the packet" true
            (has_kind "packet_classified");
          check Alcotest.bool "chain shows the counter" true
            (has_kind "counter_changed"))

let test_explain_furthest_stage () =
  (* two pings leave PING at 2: the (PING > 2) term never flips, so the
     analysis stops at the counter stage *)
  let testbed, tables, _result = run_observed ~pings:2 () in
  let analysis = Explain.analyze tables (Testbed.events testbed) in
  (match Explain.explain analysis ~rule:1 with
  | Explain.Not_fired (Explain.Saw_counter e) -> (
      match e.Ev.body with
      | Ev.Counter_changed { value; _ } ->
          check Alcotest.int "counter stuck at 2" 2 value
      | b -> Alcotest.failf "unexpected %s" (Ev.kind_name b))
  | Explain.Not_fired Explain.Saw_nothing -> Alcotest.fail "saw nothing"
  | Explain.Not_fired (Explain.Saw_packet _) -> Alcotest.fail "stopped at packet"
  | Explain.Not_fired (Explain.Saw_term _) -> Alcotest.fail "term cannot flip"
  | Explain.Fired _ -> Alcotest.fail "cannot fire below 3 pings");
  (* idle run: nothing in the rule's cone ever happens *)
  let testbed2, tables2, _ = run_observed ~pings:0 () in
  let analysis2 = Explain.analyze tables2 (Testbed.events testbed2) in
  match Explain.explain analysis2 ~rule:1 with
  | Explain.Not_fired Explain.Saw_nothing -> ()
  | _ -> Alcotest.fail "idle run should reach no stage"

(* a scenario whose condition is evaluated away from the counter's owner:
   PING counts receptions at bob, the DROP arms at sender alice, so the
   rise depends on a TERM_STATUS control frame crossing the wire *)
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

let test_explain_cross_node () =
  let testbed, tables, _result =
    run_observed ~script:cross_node_script ()
  in
  let analysis = Explain.analyze tables (Testbed.events testbed) in
  match Explain.explain analysis ~rule:1 with
  | Explain.Not_fired _ -> Alcotest.fail "cross-node rule should fire"
  | Explain.Fired { rise; chain } ->
      check Alcotest.string "condition rises at alice" "alice" rise.Ev.node;
      check Alcotest.bool "chain crosses the wire" true
        (List.length chain >= 2);
      (* the origin segment lives on bob, where the packet was counted *)
      let origin = List.hd (List.hd chain) in
      check Alcotest.string "origin at bob" "bob" origin.Ev.node;
      (* rendering never raises and names the filter *)
      let txt =
        Format.asprintf "%a" (Explain.pp_verdict tables ~rule:1)
          (Explain.Fired { rise; chain })
      in
      let has needle =
        let nl = String.length needle and tl = String.length txt in
        let rec go i =
          i + nl <= tl && (String.sub txt i nl = needle || go (i + 1))
        in
        go 0
      in
      check Alcotest.bool "report names the filter" true (has "udp_ping");
      check Alcotest.bool "report shows the hop" true
        (has "crosses the wire")

let test_explain_ambiguous_sender () =
  (* two Control_sent frames carry structurally equal payloads; the
     stitcher must pick the nearest preceding send, not the first *)
  let tables = compile cross_node_script in
  let deps = Explain.rule_deps tables ~rule:1 in
  let did = List.hd deps.Explain.dids in
  let ctl = Ev.C_term_status { tid = 0; status = true } in
  let ev seq ~ms ~node ~nid ~cause body =
    {
      Ev.seq;
      time = Vw_sim.Simtime.ms ms;
      node;
      nid;
      cause;
      body;
    }
  in
  let events =
    [
      ev 0 ~ms:1 ~node:"bob" ~nid:1 ~cause:0
        (Ev.Control_sent { dst_nid = 0; ctl });
      ev 1 ~ms:2 ~node:"bob" ~nid:1 ~cause:1
        (Ev.Control_sent { dst_nid = 0; ctl });
      ev 2 ~ms:3 ~node:"alice" ~nid:0 ~cause:2 (Ev.Control_received { ctl });
      ev 3 ~ms:3 ~node:"alice" ~nid:0 ~cause:2 (Ev.Condition_rose { did });
    ]
  in
  let analysis = Explain.analyze tables events in
  match Explain.explain analysis ~rule:1 with
  | Explain.Not_fired _ -> Alcotest.fail "synthetic rise should count as fired"
  | Explain.Fired { chain; _ } ->
      check Alcotest.bool "chain crosses the wire" true
        (List.length chain >= 2);
      let sender = List.hd (List.hd chain) in
      check Alcotest.int "nearest preceding send wins" 1 sender.Ev.seq

let test_explain_bad_rule () =
  let tables = compile Vw_scripts.udp_drop_dup in
  check Alcotest.int "quickstart has 3 rules" 3 (Explain.num_rules tables);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Explain.rule_deps: no rule 7") (fun () ->
      ignore (Explain.rule_deps tables ~rule:7))

let suite =
  [
    ( "obs.recorder",
      [
        Alcotest.test_case "emit / causes / null" `Quick test_recorder_basics;
        Alcotest.test_case "ring wrap" `Quick test_recorder_wrap;
        Alcotest.test_case "shared sequence counter" `Quick
          test_recorders_share_seq;
      ] );
    ( "obs.binlog",
      [
        Alcotest.test_case "wrapped ring keeps the tail" `Quick
          test_binary_wrap_tail;
        Alcotest.test_case "specialized emitters match generic" `Quick
          test_emitter_parity;
        Alcotest.test_case "binary emit allocates nothing" `Quick
          test_binary_emit_no_alloc;
        Alcotest.test_case "file round-trip + to_json equality" `Quick
          test_binary_file_roundtrip;
        Alcotest.test_case "string-table length limits" `Quick
          test_strtab_limits;
        Alcotest.test_case "corrupt input rejected" `Quick
          test_binlog_bad_input;
        qtest slot_roundtrip_prop;
        qtest recorder_matches_codec_prop;
      ] );
    ( "obs.metrics",
      [
        Alcotest.test_case "counters" `Quick test_metrics_counters;
        Alcotest.test_case "histograms" `Quick test_metrics_histograms;
        Alcotest.test_case "json rendering" `Quick test_metrics_json;
      ] );
    ( "obs.end_to_end",
      [
        Alcotest.test_case "event kinds + causal links" `Quick
          test_events_end_to_end;
        Alcotest.test_case "metrics mirror engine stats" `Quick
          test_metrics_end_to_end;
        Alcotest.test_case "disabled recorder stays silent" `Quick
          test_disabled_is_silent;
        qtest counter_replay_prop;
        Alcotest.test_case "merged rings = sorted concatenation" `Quick
          test_events_merge_rings;
      ] );
    ( "obs.explain",
      [
        Alcotest.test_case "fired rule: causal chain" `Quick test_explain_fired;
        Alcotest.test_case "unfired rule: furthest stage" `Quick
          test_explain_furthest_stage;
        Alcotest.test_case "cross-node chain stitching" `Quick
          test_explain_cross_node;
        Alcotest.test_case "ambiguous sender: nearest send wins" `Quick
          test_explain_ambiguous_sender;
        Alcotest.test_case "rule bounds" `Quick test_explain_bad_rule;
      ] );
  ]
