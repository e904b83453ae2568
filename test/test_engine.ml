(* Tests for the FIE/FAE engine: classification, the counter → term →
   condition → action cascade (local and distributed), every fault
   primitive end-to-end, and the controller's deploy/start/report cycle. *)

open Vw_sim
module Tables = Vw_fsl.Tables
module Fie = Vw_engine.Fie
module Host = Vw_stack.Host
module Testbed = Vw_core.Testbed
module Scenario = Vw_core.Scenario

let check = Alcotest.check
let qtest = Test_seed.qtest

let compile src =
  match Vw_fsl.Compile.parse_and_compile src with
  | Ok t -> t
  | Error e -> Alcotest.failf "compile: %s" e

(* --- classifier unit tests ---

   Through the engine's one path: [classify_frame_c] over
   [Tables.compile]. *)

let frame ~ethertype ~payload =
  Vw_net.Eth.make
    ~dst:(Vw_net.Mac.of_int 2)
    ~src:(Vw_net.Mac.of_int 1)
    ~ethertype
    (Vw_util.Hexutil.of_hex payload)

let classifier_tables =
  Tables.compile
    (compile
       {|
VAR SEQ;
FILTER_TABLE
rether_token: (12 2 0x9900), (14 2 0x0001)
rether_any: (12 2 0x9900)
flagged: (12 2 0x0800), (15 1 0x10 0x10)
var_match: (12 2 0x0801), (14 4 SEQ)
END
NODE_TABLE
a 02:00:00:00:00:01 10.0.0.1
b 02:00:00:00:00:02 10.0.0.2
END
SCENARIO classify_only
(TRUE) >> STOP;
END
|})

let no_bindings = [| None |]

let classify ~bindings =
  Vw_engine.Classifier.classify_frame_c classifier_tables ~bindings

let test_classify_first_match () =
  (* token frames match the more specific rule first *)
  check (Alcotest.option Alcotest.int) "token hits rule 0" (Some 0)
    (classify ~bindings:no_bindings
       (frame ~ethertype:0x9900 ~payload:"0001deadbeef"));
  (* other rether frames fall to the catch-all *)
  check (Alcotest.option Alcotest.int) "ack hits rule 1" (Some 1)
    (classify ~bindings:no_bindings
       (frame ~ethertype:0x9900 ~payload:"0010deadbeef"));
  check (Alcotest.option Alcotest.int) "no match" None
    (classify ~bindings:no_bindings (frame ~ethertype:0x1234 ~payload:"0001"))

let test_classify_mask () =
  (* flagged wants bit 0x10 at offset 15 (payload byte 1) *)
  check (Alcotest.option Alcotest.int) "bit set" (Some 2)
    (classify ~bindings:no_bindings (frame ~ethertype:0x0800 ~payload:"0018"));
  check (Alcotest.option Alcotest.int) "bit clear" None
    (classify ~bindings:no_bindings (frame ~ethertype:0x0800 ~payload:"0008"))

let test_classify_var_binding () =
  let unbound = [| None |] in
  (* unbound variable: the filter cannot match *)
  check (Alcotest.option Alcotest.int) "unbound never matches" None
    (classify ~bindings:unbound
       (frame ~ethertype:0x0801 ~payload:"0011223344"));
  let bound = [| Some (Vw_util.Hexutil.of_hex "00112233") |] in
  check (Alcotest.option Alcotest.int) "bound matches equal bytes" (Some 3)
    (classify ~bindings:bound (frame ~ethertype:0x0801 ~payload:"0011223344"));
  check (Alcotest.option Alcotest.int) "bound rejects different bytes" None
    (classify ~bindings:bound (frame ~ethertype:0x0801 ~payload:"ff11223344"))

let test_classify_truncated_frame () =
  (* a frame shorter than a tuple's window must not match that tuple (nor
     crash); it can still fall through to a shorter filter *)
  check (Alcotest.option Alcotest.int) "header-only rether falls to catch-all"
    (Some 1)
    (classify ~bindings:no_bindings (frame ~ethertype:0x9900 ~payload:""));
  check (Alcotest.option Alcotest.int) "short ip frame matches nothing" None
    (classify ~bindings:no_bindings (frame ~ethertype:0x0800 ~payload:"00"))

(* --- compiled vs linear classifier equivalence (property) ---

   Random filter tables — literal, masked and variable tuples over a tiny
   byte alphabet, so bucket collisions, fallback interleavings and
   first-match ties are dense — against random frames: the compiled
   [classify_frame_c] must return exactly what the naive first-match
   [classify_linear] reference returns. *)

let tables_of_filters filters =
  {
    Tables.scenario_name = "prop";
    inactivity_timeout = None;
    vars = [| { Tables.vid = 0; vname = "V"; v_len = 2 } |];
    filters;
    nodes = [||];
    counters = [||];
    terms = [||];
    conds = [||];
    actions = [||];
    rule_of_cond = [||];
  }

(* Tuples reach the compiled kernel's edges: 7- and 8-byte literals (the
   last int key and the first pool byte loop), masks shorter than their
   pattern, windows at offsets 10-16 straddling the header/payload
   boundary, and frames short enough for windows to run past their end.
   A third of the tuples sit on one window per case, so the index
   usually keys on it: bucketed filters then often carry no other tuple,
   or a second literal there, equal to the first or not. *)
let gen_equiv_case =
  let open QCheck.Gen in
  let small_char = oneofl [ '\x00'; '\x01' ] in
  let gen_pat len =
    map Bytes.of_string (string_size ~gen:small_char (return len))
  in
  let gen_window =
    frequency [ (6, int_range 1 2); (1, int_range 3 6); (2, int_range 7 8) ]
    >>= fun len ->
    frequency [ (3, int_range 10 16); (1, return 34) ] >>= fun off ->
    return (off, len)
  in
  let gen_tuple hot =
    frequency [ (1, return hot); (2, gen_window) ]
    >>= fun (t_offset, t_len) ->
    frequency
      [
        (4, return None);
        (1, map Option.some (gen_pat t_len));
        (1, int_range 1 t_len >>= fun l -> map Option.some (gen_pat l));
      ]
    >>= fun t_mask ->
    frequency
      [
        (5, map (fun p -> Tables.Bytes_pattern p) (gen_pat t_len));
        (1, return (Tables.Var_pattern 0));
      ]
    >>= fun t_pat -> return { Tables.t_offset; t_len; t_mask; t_pat }
  in
  gen_window >>= fun hot ->
  int_range 1 16 >>= fun n_filters ->
  let gen_filter =
    list_size (int_range 0 3) (gen_tuple hot) >>= function
    | [] -> return []
    | tu :: _ as tuples ->
        frequency [ (5, return tuples); (1, return (tuples @ [ tu ])) ]
  in
  list_size (return n_filters) gen_filter >>= fun tuple_lists ->
  let filters =
    Array.of_list
      (List.mapi
         (fun fid f_tuples ->
           { Tables.fid; fname = Printf.sprintf "f%d" fid; f_tuples })
         tuple_lists)
  in
  frequency
    [ (1, return [| None |]); (2, map (fun p -> [| Some p |]) (gen_pat 2)) ]
  >>= fun bindings ->
  list_size (int_range 1 8)
    ( oneofl [ 0x0000; 0x0001; 0x0100; 0x0101 ] >>= fun ethertype ->
      oneofl [ 0x0000; 0x0001; 0x0100; 0x0101 ] >>= fun src ->
      string_size ~gen:small_char (int_range 0 25) >>= fun payload ->
      return
        (Vw_net.Eth.make
           ~dst:(Vw_net.Mac.of_int 2)
           ~src:(Vw_net.Mac.of_int src)
           ~ethertype
           (Bytes.of_string payload)) )
  >>= fun frames -> return (filters, bindings, frames)

let prop_compiled_equals_linear =
  QCheck.Test.make ~name:"compiled SoA classifier == linear" ~count:500
    (QCheck.make gen_equiv_case)
    (fun (filters, bindings, frames) ->
      let module C = Vw_engine.Classifier in
      let t = tables_of_filters filters in
      let ct = Tables.compile t in
      List.for_all
        (fun frame ->
          C.classify_frame_c ct ~bindings frame
          = C.classify_linear t ~bindings (Vw_net.Eth.to_bytes frame))
        frames)

(* The mask-free literals a filter has on the index window, read from the
   record form; it keys on the first. *)
let index_literals (c : Tables.Compiled.t) (f : Tables.filter_entry) =
  List.filter_map
    (fun (tu : Tables.tuple) ->
      match tu.Tables.t_pat with
      | Tables.Bytes_pattern b
        when tu.Tables.t_offset = c.Tables.Compiled.ci_offset
             && tu.Tables.t_len = c.Tables.Compiled.ci_len
             && tu.Tables.t_mask = None ->
          Some b
      | _ -> None)
    f.Tables.f_tuples

(* The edge shapes [gen_equiv_case] must reach, with whether one case
   reaches each. *)
let equiv_shapes (filters, _, frames) =
  let c = Tables.compile (tables_of_filters filters) in
  let off = c.Tables.Compiled.ci_offset and len = c.Tables.Compiled.ci_len in
  let index_literals = index_literals c in
  let two_literals same =
    Array.exists
      (fun f ->
        match index_literals f with
        | a :: rest -> List.exists (fun b -> Bytes.equal a b = same) rest
        | [] -> false)
      filters
  in
  let tuples =
    List.concat_map (fun f -> f.Tables.f_tuples) (Array.to_list filters)
  in
  let size = Vw_net.Eth.size in
  [
    ("two equal literals on the index window", two_literals true);
    ("two different literals on the index window", two_literals false);
    ( "a bucketed filter with no other tuple",
      Array.exists
        (fun (f : Tables.filter_entry) ->
          List.length f.Tables.f_tuples = 1 && index_literals f <> [])
        filters );
    ( "a window crossing byte 14",
      List.exists
        (fun (tu : Tables.tuple) ->
          tu.Tables.t_offset < 14 && tu.Tables.t_offset + tu.Tables.t_len > 14)
        tuples );
    ( "a window past the frame's end",
      List.exists
        (fun fr ->
          List.exists
            (fun (tu : Tables.tuple) ->
              tu.Tables.t_offset + tu.Tables.t_len > size fr)
            tuples)
        frames );
    ( "a frame shorter than the index window",
      off >= 0 && List.exists (fun fr -> size fr < off + len) frames );
  ]

(* Each shape above turns up in at least a tenth of the cases the
   equivalence properties draw. *)
let test_equiv_shapes () =
  let rand = Random.State.make [| Vw_util.Prng.run_seed () |] in
  let n = 500 in
  let cases = List.init n (fun _ -> gen_equiv_case rand) in
  let shapes = List.map equiv_shapes cases in
  let share (name, _) =
    let hits = List.length (List.filter (fun s -> List.assoc name s) shapes) in
    Printf.printf "%-45s %3d of %d cases\n" name hits n;
    (name, hits)
  in
  List.iter
    (fun (name, hits) ->
      if 10 * hits < n then
        Alcotest.failf "%s: in %d of %d cases, below a tenth" name hits n)
    (List.map share (List.hd shapes))

(* The count of filters tested per frame, modelled on the record form:
   the filters the frame's index window selects (those keyed there on
   the frame's bytes) and those not keyed there, at or below the first
   match, or all of them when nothing matches. *)
let prop_scanned_equals_model =
  QCheck.Test.make ~name:"filters_scanned == bucket-and-fallback model"
    ~count:500 (QCheck.make gen_equiv_case)
    (fun (filters, bindings, frames) ->
      let module C = Vw_engine.Classifier in
      let t = tables_of_filters filters in
      let ct = Tables.compile t in
      let off = ct.Tables.Compiled.ci_offset
      and len = ct.Tables.Compiled.ci_len in
      let stats = C.new_scan_stats () in
      List.for_all
        (fun frame ->
          let data = Vw_net.Eth.to_bytes frame in
          let first =
            Option.value (C.classify_linear t ~bindings data)
              ~default:(Array.length filters)
          in
          let candidate f =
            match index_literals ct f with
            | [] -> true
            | key :: _ ->
                off + len <= Bytes.length data
                && Bytes.equal key (Bytes.sub data off len)
          in
          let model =
            Array.fold_left
              (fun n (f : Tables.filter_entry) ->
                if f.Tables.fid <= first && candidate f then n + 1 else n)
              0 filters
          in
          let before = stats.C.filters_scanned in
          ignore (C.classify_fid_c stats ct ~bindings frame);
          stats.C.filters_scanned - before = model)
        frames)

(* --- the compiled classifier allocates a constant per frame ---

   The blast_mixed1k shape: singleton buckets, one 256-filter shared
   bucket whose second tuple never matches, and 255 masked filters in the
   always-scanned fallback, so a frame tests anywhere from 1 to 511
   filters. What [classify_frame_c] allocates must not grow with that
   number, and [classify_fid_c], the engine's entry, allocates nothing. *)

let blast_shape_tables () =
  compile
    (String.concat ""
       ([ "FILTER_TABLE\n" ]
       @ List.init 64 (fun k ->
             Printf.sprintf "s%d: (34 2 0x%04x)\n" k (0x2000 + k))
       @ List.init 256 (fun k ->
             Printf.sprintf "h%d: (34 2 0x3000), (%d 1 0xaa)\n" k
               (42 + (k mod 64)))
       @ List.init 255 (fun k ->
             Printf.sprintf "m%d: (34 2 0xfff0 0x%04x)\n" k
               (0xe000 + (k lsl 4)))
       @ [
           "udp_ping: (34 2 0x1388), (36 2 0x1389)\n\
            END\n\
            NODE_TABLE\n\
            a 02:00:00:00:00:01 10.0.0.1\n\
            b 02:00:00:00:00:02 10.0.0.2\n\
            END\n\
            SCENARIO blast_shape\n\
            (TRUE) >> STOP;\n\
            END\n";
         ]))

let udp_eth ~src_port =
  let src = Vw_net.Ip_addr.of_host_index 1 in
  let dst = Vw_net.Ip_addr.of_host_index 2 in
  let udp =
    Vw_net.Udp.to_bytes ~src ~dst
      (Vw_net.Udp.make ~src_port ~dst_port:0x1389 (Bytes.make 64 'p'))
  in
  Vw_net.Eth.make ~dst:(Vw_net.Mac.of_int 2) ~src:(Vw_net.Mac.of_int 1)
    ~ethertype:Vw_net.Eth.ethertype_ipv4
    (Vw_net.Ipv4.to_bytes
       (Vw_net.Ipv4.make ~protocol:Vw_net.Ipv4.protocol_udp ~src ~dst udp))

let test_compiled_classify_no_alloc () =
  let module C = Vw_engine.Classifier in
  let ct = Tables.compile (blast_shape_tables ()) in
  (* a singleton hit, the shared bucket, no bucket, the last filter *)
  let frames =
    Array.map (fun p -> udp_eth ~src_port:p) [| 0x2005; 0x3000; 0x4321; 0x1388 |]
  in
  let n = Array.length frames in
  let bindings = [||] in
  let stats = C.new_scan_stats () in
  let classify frame =
    let before = stats.C.filters_scanned in
    let fid = C.classify_frame_c ~stats ct ~bindings frame in
    (Option.value fid ~default:(-1), stats.C.filters_scanned - before)
  in
  let results = Array.map classify frames in
  check (Alcotest.array Alcotest.int) "first matches" [| 5; -1; -1; 575 |]
    (Array.map fst results);
  check (Alcotest.array Alcotest.int) "filters tested per frame"
    [| 1; 511; 255; 256 |] (Array.map snd results);
  let run () =
    for i = 0 to n - 1 do
      ignore (Sys.opaque_identity (C.classify_frame_c ~stats ct ~bindings frames.(i)))
    done
  in
  let rounds = 1000 in
  for _ = 1 to 16 do
    run ()
  done;
  let w0 = Gc.minor_words () in
  for _ = 1 to rounds do
    run ()
  done;
  let per_frame = (Gc.minor_words () -. w0) /. float_of_int (rounds * n) in
  if per_frame > 8.0 then
    Alcotest.failf "classify_frame_c allocated %.1f minor words per frame"
      per_frame;
  (* the engine's entry, without the option wrapper, allocates nothing *)
  let w0 = Gc.minor_words () in
  for _ = 1 to rounds do
    for i = 0 to n - 1 do
      ignore (Sys.opaque_identity (C.classify_fid_c stats ct ~bindings frames.(i)))
    done
  done;
  let per_frame = (Gc.minor_words () -. w0) /. float_of_int (rounds * n) in
  if per_frame > 0.01 then
    Alcotest.failf "classify_fid_c allocated %.2f minor words per frame"
      per_frame

(* --- end-to-end scenario helpers --- *)

let alice_ip = Vw_net.Ip_addr.of_string "10.0.0.10"
let bob_ip = Vw_net.Ip_addr.of_string "10.0.0.11"

(* Workload: alice sends [count] pings (UDP 5000 -> 5001), bob replies pong
   to each. *)
let ping_pong_workload ?(count = 10) ?(interval = Simtime.ms 5) () ~pongs ~pings
    testbed =
  let engine = Testbed.engine testbed in
  let alice = Testbed.host (Testbed.node testbed "alice") in
  let bob = Testbed.host (Testbed.node testbed "bob") in
  Host.udp_bind bob ~port:5001 (fun ~src ~src_port payload ->
      incr pings;
      Host.udp_send bob ~src_port:5001 ~dst:src ~dst_port:src_port payload);
  Host.udp_bind alice ~port:5000 (fun ~src:_ ~src_port:_ _ -> incr pongs);
  for i = 0 to count - 1 do
    Engine.schedule_after engine
      ~delay:(i * interval)
      (fun () ->
        Host.udp_send alice ~src_port:5000 ~dst:bob_ip ~dst_port:5001
          (Bytes.make 32 'p'))
  done

let script ~header ~rules =
  {|
FILTER_TABLE
udp_ping: (34 2 0x1388), (36 2 0x1389)
udp_pong: (34 2 0x1389), (36 2 0x1388)
END
NODE_TABLE
alice 02:00:00:00:00:0a 10.0.0.10
bob 02:00:00:00:00:0b 10.0.0.11
END
SCENARIO |}
  ^ header ^ "\n" ^ rules ^ "\nEND"

let run_scenario ?(count = 10) ?(max_duration = Simtime.sec 2.0) src =
  let testbed =
    Testbed.create
      [
        ("alice", Vw_net.Mac.of_string "02:00:00:00:00:0a", alice_ip);
        ("bob", Vw_net.Mac.of_string "02:00:00:00:00:0b", bob_ip);
      ]
  in
  let pings = ref 0 and pongs = ref 0 in
  let result =
    Scenario.run testbed ~script:src ~max_duration
      ~workload:(ping_pong_workload ~count () ~pongs ~pings)
  in
  match result with
  | Error e -> Alcotest.failf "scenario failed to run: %s" e
  | Ok r -> (r, testbed, !pings, !pongs)

(* --- counters, SEND vs RECV side --- *)

let test_counters_both_sides () =
  let src =
    script ~header:"count_pings"
      ~rules:
        {|
PING_S: (udp_ping, alice, bob, SEND)
PING_R: (udp_ping, alice, bob, RECV)
PONG_R: (udp_pong, bob, alice, RECV)
(TRUE) >> ENABLE_CNTR( PING_S ); ENABLE_CNTR( PING_R ); ENABLE_CNTR( PONG_R );
|}
  in
  let _, testbed, pings, pongs = run_scenario src in
  check Alcotest.int "bob answered all pings" 10 pings;
  check Alcotest.int "alice got all pongs" 10 pongs;
  let alice_fie = Testbed.fie (Testbed.node testbed "alice") in
  let bob_fie = Testbed.fie (Testbed.node testbed "bob") in
  (* SEND-side counter lives on alice *)
  check (Alcotest.option Alcotest.int) "PING_S on alice" (Some 10)
    (Fie.counter_value alice_fie "PING_S");
  (* RECV-side counter lives on bob *)
  check (Alcotest.option Alcotest.int) "PING_R on bob" (Some 10)
    (Fie.counter_value bob_fie "PING_R");
  check (Alcotest.option Alcotest.int) "PONG_R on alice" (Some 10)
    (Fie.counter_value alice_fie "PONG_R")

let test_disabled_counter_does_not_count () =
  let src =
    script ~header:"disabled"
      ~rules:
        {|
PING_R: (udp_ping, alice, bob, RECV)
PING_R2: (udp_ping, alice, bob, RECV)
(TRUE) >> ENABLE_CNTR( PING_R2 );
((PING_R2 = 5)) >> ENABLE_CNTR( PING_R );
|}
  in
  let _, testbed, _, _ = run_scenario src in
  let bob_fie = Testbed.fie (Testbed.node testbed "bob") in
  (* enabled only after the 5th ping: counts the last 5 *)
  check (Alcotest.option Alcotest.int) "late-enabled counter" (Some 5)
    (Fie.counter_value bob_fie "PING_R");
  check (Alcotest.option Alcotest.int) "always-on counter" (Some 10)
    (Fie.counter_value bob_fie "PING_R2")

let test_counter_arithmetic_cascade () =
  (* exercises ASSIGN/INCR/DECR/RESET plus the re-arming reset idiom *)
  let src =
    script ~header:"arithmetic"
      ~rules:
        {|
PING_R: (udp_ping, alice, bob, RECV)
TOTAL: (bob)
(TRUE) >> ENABLE_CNTR( PING_R ); ASSIGN_CNTR( TOTAL, 100 );
((PING_R = 1)) >> RESET_CNTR( PING_R ); INCR_CNTR( TOTAL, 3 ); DECR_CNTR( TOTAL, 1 );
|}
  in
  let _, testbed, _, _ = run_scenario src in
  let bob_fie = Testbed.fie (Testbed.node testbed "bob") in
  (* each of the 10 pings: +3 -1 => 100 + 20 *)
  check (Alcotest.option Alcotest.int) "fixpoint arithmetic" (Some 120)
    (Fie.counter_value bob_fie "TOTAL");
  check (Alcotest.option Alcotest.int) "re-armed counter back at 0" (Some 0)
    (Fie.counter_value bob_fie "PING_R")

(* --- fault primitives --- *)

let test_drop_fault () =
  let src =
    script ~header:"drop_two"
      ~rules:
        {|
PING_R: (udp_ping, alice, bob, RECV)
(TRUE) >> ENABLE_CNTR( PING_R );
((PING_R > 2) && (PING_R <= 4)) >> DROP( udp_ping, alice, bob, RECV );
|}
  in
  let _, _, pings, pongs = run_scenario src in
  (* pings 3 and 4 die at bob's ingress *)
  check Alcotest.int "bob saw 8 pings" 8 pings;
  check Alcotest.int "alice got 8 pongs" 8 pongs

let test_drop_at_send_side () =
  let src =
    script ~header:"drop_egress"
      ~rules:
        {|
PING_S: (udp_ping, alice, bob, SEND)
(TRUE) >> ENABLE_CNTR( PING_S );
((PING_S = 1)) >> DROP( udp_ping, alice, bob, SEND );
|}
  in
  let _, testbed, pings, _ = run_scenario src in
  check Alcotest.int "first ping dropped before the wire" 9 pings;
  let alice = Testbed.node testbed "alice" in
  check Alcotest.int "drop counted" 1 (Fie.stats (Testbed.fie alice)).Fie.faults_drop

let test_delay_fault () =
  let src =
    script ~header:"delay_one"
      ~rules:
        {|
PING_R: (udp_ping, alice, bob, RECV)
PING_CNT: (udp_ping, alice, bob, RECV)
(TRUE) >> ENABLE_CNTR( PING_CNT );
((PING_CNT = 1)) >> DELAY( udp_ping, alice, bob, RECV, 100ms );
|}
  in
  let testbed =
    Testbed.create
      [
        ("alice", Vw_net.Mac.of_string "02:00:00:00:00:0a", alice_ip);
        ("bob", Vw_net.Mac.of_string "02:00:00:00:00:0b", bob_ip);
      ]
  in
  let arrival_times = ref [] in
  let result =
    Scenario.run testbed ~script:src ~max_duration:(Simtime.sec 2.0)
      ~workload:(fun tb ->
        let engine = Testbed.engine tb in
        let alice = Testbed.host (Testbed.node tb "alice") in
        let bob = Testbed.host (Testbed.node tb "bob") in
        Host.udp_bind bob ~port:5001 (fun ~src:_ ~src_port:_ _ ->
            arrival_times := Engine.now engine :: !arrival_times);
        (* two pings 1ms apart; the first is delayed 100ms, so it must
           arrive AFTER the second *)
        Host.udp_send alice ~src_port:5000 ~dst:bob_ip ~dst_port:5001
          (Bytes.make 8 '1');
        Engine.schedule_after engine ~delay:(Simtime.ms 1) (fun () ->
            Host.udp_send alice ~src_port:5000 ~dst:bob_ip ~dst_port:5001
              (Bytes.make 8 '2')))
  in
  (match result with Error e -> Alcotest.fail e | Ok _ -> ());
  match List.rev !arrival_times with
  | [ t_second; t_first_delayed ] ->
      check Alcotest.bool "delayed ping overtaken" true (t_first_delayed > t_second);
      (* jiffy quantization: the delay is at least 100ms *)
      check Alcotest.bool "delay >= 100ms" true
        (t_first_delayed >= Simtime.ms 100)
  | l -> Alcotest.failf "expected 2 arrivals, got %d" (List.length l)

let test_dup_fault () =
  let src =
    script ~header:"dup_one"
      ~rules:
        {|
PING_R: (udp_ping, alice, bob, RECV)
(TRUE) >> ENABLE_CNTR( PING_R );
((PING_R = 2)) >> DUP( udp_ping, alice, bob, RECV );
|}
  in
  let _, _, pings, _ = run_scenario src in
  (* ping 2 is duplicated at bob's ingress: 11 deliveries *)
  check Alcotest.int "one duplicate delivered" 11 pings

let test_modify_fault_corrupts_checksum () =
  let src =
    script ~header:"modify_random"
      ~rules:
        {|
PING_R: (udp_ping, alice, bob, RECV)
(TRUE) >> ENABLE_CNTR( PING_R );
((PING_R = 1)) >> MODIFY( udp_ping, alice, bob, RECV, RANDOM );
|}
  in
  let _, _, pings, _ = run_scenario src in
  (* the first ping is corrupted; the UDP/IP checksums kill it in bob's
     stack, so only 9 reach the application *)
  check Alcotest.int "corrupted ping discarded by the stack" 9 pings

let test_modify_fault_explicit_pattern () =
  (* rewrite the UDP destination port (offset 36) to 0x1390: bob has no
     such binding, so the datagram vanishes — and because the script sets
     bytes explicitly, VirtualWire does NOT fix the checksum (the paper
     leaves that to the user)… so it is dropped even earlier. Either way
     exactly one ping disappears. *)
  let src =
    script ~header:"modify_pattern"
      ~rules:
        {|
PING_R: (udp_ping, alice, bob, RECV)
(TRUE) >> ENABLE_CNTR( PING_R );
((PING_R = 1)) >> MODIFY( udp_ping, alice, bob, RECV, (36 0x1390) );
|}
  in
  let _, _, pings, _ = run_scenario src in
  check Alcotest.int "redirected ping lost" 9 pings

let test_reorder_fault () =
  let src =
    script ~header:"reorder3"
      ~rules:
        {|
PING_R: (udp_ping, alice, bob, RECV)
(TRUE) >> ENABLE_CNTR( PING_R );
((PING_R >= 1)) >> REORDER( udp_ping, alice, bob, RECV, 3, [3 1 2] );
|}
  in
  let testbed =
    Testbed.create
      [
        ("alice", Vw_net.Mac.of_string "02:00:00:00:00:0a", alice_ip);
        ("bob", Vw_net.Mac.of_string "02:00:00:00:00:0b", bob_ip);
      ]
  in
  let arrivals = ref [] in
  let result =
    Scenario.run testbed ~script:src ~max_duration:(Simtime.sec 2.0)
      ~workload:(fun tb ->
        let engine = Testbed.engine tb in
        let alice = Testbed.host (Testbed.node tb "alice") in
        let bob = Testbed.host (Testbed.node tb "bob") in
        Host.udp_bind bob ~port:5001 (fun ~src:_ ~src_port:_ payload ->
            arrivals := Bytes.to_string payload :: !arrivals);
        List.iteri
          (fun i tag ->
            Engine.schedule_after engine
              ~delay:(i * Simtime.ms 2)
              (fun () ->
                Host.udp_send alice ~src_port:5000 ~dst:bob_ip
                  ~dst_port:5001
                  (Bytes.of_string tag)))
          [ "one"; "two"; "three" ])
  in
  (match result with Error e -> Alcotest.fail e | Ok _ -> ());
  check (Alcotest.list Alcotest.string) "released as 3 1 2"
    [ "three"; "one"; "two" ] (List.rev !arrivals)

let test_reorder_corrupt_permutation () =
  (* The compiler rejects a non-permutation REORDER order, but tables also
     arrive over the wire. Corrupt the order out-of-band, as a damaged or
     adversarial INIT payload would: the engine must normalize it to the
     identity at init and release every buffered frame, never crash. *)
  let src =
    script ~header:"reorder_bad"
      ~rules:
        {|
PING_R: (udp_ping, alice, bob, RECV)
(TRUE) >> ENABLE_CNTR( PING_R );
((PING_R >= 1)) >> REORDER( udp_ping, alice, bob, RECV, 3, [3 1 2] );
|}
  in
  let tables = compile src in
  let actions =
    Array.map
      (fun (a : Tables.action_entry) ->
        match a.Tables.act with
        | Tables.A_reorder (s, n, _) ->
            { a with Tables.act = Tables.A_reorder (s, n, [| 9; 0; 7 |]) }
        | _ -> a)
      tables.Tables.actions
  in
  let tables = { tables with Tables.actions } in
  let testbed =
    Testbed.create
      [
        ("alice", Vw_net.Mac.of_string "02:00:00:00:00:0a", alice_ip);
        ("bob", Vw_net.Mac.of_string "02:00:00:00:00:0b", bob_ip);
      ]
  in
  let nodes = [ Testbed.node testbed "alice"; Testbed.node testbed "bob" ] in
  List.iter
    (fun node ->
      match Fie.init_local (Testbed.fie node) ~controller_nid:0 tables with
      | Ok () -> ()
      | Error e -> Alcotest.failf "init: %s" e)
    nodes;
  List.iter (fun node -> Fie.start_local (Testbed.fie node)) nodes;
  let engine = Testbed.engine testbed in
  let alice = Testbed.host (Testbed.node testbed "alice") in
  let bob = Testbed.host (Testbed.node testbed "bob") in
  let arrivals = ref [] in
  Host.udp_bind bob ~port:5001 (fun ~src:_ ~src_port:_ payload ->
      arrivals := Bytes.to_string payload :: !arrivals);
  List.iteri
    (fun i tag ->
      Engine.schedule_after engine
        ~delay:(i * Simtime.ms 2)
        (fun () ->
          Host.udp_send alice ~src_port:5000 ~dst:bob_ip ~dst_port:5001
            (Bytes.of_string tag)))
    [ "one"; "two"; "three" ];
  Testbed.run testbed ~until:(Simtime.ms 100) ();
  check (Alcotest.list Alcotest.string)
    "identity release, nothing lost or duplicated"
    [ "one"; "two"; "three" ] (List.rev !arrivals)

let test_fault_only_while_condition_holds () =
  (* level semantics: the DROP turns off when its condition goes false *)
  let src =
    script ~header:"window"
      ~rules:
        {|
PING_R: (udp_ping, alice, bob, RECV)
(TRUE) >> ENABLE_CNTR( PING_R );
((PING_R >= 3) && (PING_R < 6)) >> DROP( udp_ping, alice, bob, RECV );
|}
  in
  let _, _, pings, _ = run_scenario src in
  (* pings 3,4,5 dropped; 1,2 and 6..10 pass *)
  check Alcotest.int "window of 3 drops" 7 pings

(* --- FAIL / STOP / FLAG_ERROR and distribution --- *)

let test_fail_action_distributed () =
  (* the counter lives on alice (RECV of pong), the FAIL hits bob: the
     condition must be evaluated on bob from term statuses shipped by
     alice (the paper's §5.2 scenario) *)
  let src =
    script ~header:"fail_bob"
      ~rules:
        {|
PONG_R: (udp_pong, bob, alice, RECV)
(TRUE) >> ENABLE_CNTR( PONG_R );
((PONG_R = 3)) >> FAIL( bob );
|}
  in
  let _, testbed, pings, pongs = run_scenario src ~max_duration:(Simtime.sec 2.0) in
  check Alcotest.int "alice got 3 pongs" 3 pongs;
  check Alcotest.bool "bob stopped answering" true (pings <= 4);
  check Alcotest.bool "bob is dead" true
    (Host.is_failed (Testbed.host (Testbed.node testbed "bob")))

let test_stop_ends_scenario () =
  let src =
    script ~header:"stop_at_5"
      ~rules:
        {|
PING_R: (udp_ping, alice, bob, RECV)
(TRUE) >> ENABLE_CNTR( PING_R );
((PING_R = 5)) >> STOP;
|}
  in
  let r, _, _, _ = run_scenario src ~max_duration:(Simtime.sec 30.0) in
  check Alcotest.string "stopped" "STOPPED" (Scenario.outcome_to_string r.outcome);
  check Alcotest.bool "well before the limit" true (r.duration < Simtime.sec 1.0);
  check Alcotest.bool "passed" true (Scenario.passed r)

let test_flag_error_reported () =
  let src =
    script ~header:"flag_on_4"
      ~rules:
        {|
PING_R: (udp_ping, alice, bob, RECV)
(TRUE) >> ENABLE_CNTR( PING_R );
((PING_R = 4)) >> FLAG_ERROR;
|}
  in
  let r, _, _, _ = run_scenario src in
  check Alcotest.int "one error" 1 (List.length r.errors);
  (match r.errors with
  | [ { Scenario.err_node; err_rule } ] ->
      check Alcotest.string "flagged on bob" "bob" err_node;
      check Alcotest.int "rule index" 1 err_rule
  | _ -> Alcotest.fail "expected one error");
  check Alcotest.bool "failed" false (Scenario.passed r)

let test_inactivity_timeout () =
  let src =
    script ~header:"quiet 100ms"
      ~rules:
        {|
PING_R: (udp_ping, alice, bob, RECV)
(TRUE) >> ENABLE_CNTR( PING_R );
((PING_R = 1000)) >> STOP;
|}
  in
  (* only 3 pings: traffic dies out and the 100ms inactivity timer ends it *)
  let r, _, _, _ = run_scenario ~count:3 ~max_duration:(Simtime.sec 30.0) src in
  check Alcotest.string "timed out" "TIMED_OUT"
    (Scenario.outcome_to_string r.outcome);
  check Alcotest.bool "not passed" false (Scenario.passed r)

let test_set_curtime_elapsed () =
  let src =
    script ~header:"timing"
      ~rules:
        {|
PING_R: (udp_ping, alice, bob, RECV)
T: (bob)
(TRUE) >> ENABLE_CNTR( PING_R );
((PING_R = 1)) >> SET_CURTIME( T );
((PING_R = 10)) >> ELAPSED_TIME( T );
|}
  in
  let _, testbed, _, _ = run_scenario src in
  let bob_fie = Testbed.fie (Testbed.node testbed "bob") in
  match Fie.counter_value bob_fie "T" with
  | Some elapsed_ms ->
      (* pings are 5ms apart: 9 gaps ≈ 45ms *)
      check Alcotest.bool "elapsed plausible" true
        (elapsed_ms >= 40 && elapsed_ms <= 60)
  | None -> Alcotest.fail "no T counter"

let test_scenario_reuse_on_testbed () =
  (* run two scenarios back to back on one testbed: Fie.reset must isolate
     them (the regression-testing workflow) *)
  let testbed =
    Testbed.create
      [
        ("alice", Vw_net.Mac.of_string "02:00:00:00:00:0a", alice_ip);
        ("bob", Vw_net.Mac.of_string "02:00:00:00:00:0b", bob_ip);
      ]
  in
  let stop_script =
    script ~header:"first"
      ~rules:
        {|
PING_R: (udp_ping, alice, bob, RECV)
(TRUE) >> ENABLE_CNTR( PING_R );
((PING_R = 2)) >> STOP;
|}
  in
  let pings = ref 0 and pongs = ref 0 in
  (match
     Scenario.run testbed ~script:stop_script ~max_duration:(Simtime.sec 5.0)
       ~workload:(ping_pong_workload ~count:3 () ~pongs ~pings)
   with
  | Ok r -> check Alcotest.string "first run stopped" "STOPPED"
              (Scenario.outcome_to_string r.Scenario.outcome)
  | Error e -> Alcotest.fail e);
  (* second run with different ports bound — rebind fails, so reuse the
     same workload functions on fresh counters only *)
  let flag_script =
    script ~header:"second"
      ~rules:
        {|
PING_R: (udp_ping, alice, bob, RECV)
(TRUE) >> ENABLE_CNTR( PING_R );
((PING_R = 1)) >> FLAG_ERROR;
|}
  in
  let alice = Testbed.host (Testbed.node testbed "alice") in
  (match
     Scenario.run testbed ~script:flag_script ~max_duration:(Simtime.sec 5.0)
       ~workload:(fun _ ->
         Host.udp_send alice ~src_port:5000 ~dst:bob_ip ~dst_port:5001
           (Bytes.make 8 'x'))
   with
  | Ok r ->
      check Alcotest.int "second run flagged" 1 (List.length r.Scenario.errors)
  | Error e -> Alcotest.fail e)

let test_control_messages_flow () =
  (* distributed condition: counters on both nodes, cross-node term *)
  let src =
    script ~header:"cross"
      ~rules:
        {|
PING_R: (udp_ping, alice, bob, RECV)
PONG_R: (udp_pong, bob, alice, RECV)
(TRUE) >> ENABLE_CNTR( PING_R ); ENABLE_CNTR( PONG_R );
((PING_R >= 5) && (PONG_R >= 5)) >> STOP;
|}
  in
  let r, testbed, _, _ = run_scenario src ~max_duration:(Simtime.sec 10.0) in
  check Alcotest.string "cross-node condition reached STOP" "STOPPED"
    (Scenario.outcome_to_string r.outcome);
  let bob_fie = Testbed.fie (Testbed.node testbed "bob") in
  let alice_fie = Testbed.fie (Testbed.node testbed "alice") in
  check Alcotest.bool "control messages were sent" true
    ((Fie.stats bob_fie).Fie.control_sent > 0
    || (Fie.stats alice_fie).Fie.control_sent > 0)

(* The Figure 2 'TCP_data_rt1' idiom: a VAR pins one specific sequence
   number so a scenario can harass exactly that segment. We bind the first
   data segment's sequence number (deterministic: ISS 10000 + 1 for SYN)
   and drop its first two appearances; TCP must deliver it on the third. *)
let test_var_tracks_one_segment () =
  let script =
    {|
VAR SeqNoData;
FILTER_TABLE
TCP_data_rt1: (34 2 0x6000), (36 2 0x4000), (38 4 SeqNoData), (47 1 0x10 0x10)
TCP_data: (34 2 0x6000), (36 2 0x4000), (47 1 0x10 0x10)
END
NODE_TABLE
node1 00:46:61:af:fe:23 192.168.1.1
node2 00:23:31:df:af:12 192.168.1.2
END
SCENARIO track_retransmission
RT1: (TCP_data_rt1, node1, node2, RECV)
(TRUE) >> ENABLE_CNTR( RT1 ); BIND_VAR( SeqNoData, 0x00002711 );
((RT1 >= 1) && (RT1 <= 2)) >> DROP( TCP_data_rt1, node1, node2, RECV );
((RT1 = 3)) >> STOP;
END
|}
  in
  let tables =
    match Vw_fsl.Compile.parse_and_compile script with
    | Ok t -> t
    | Error e -> Alcotest.failf "compile: %s" e
  in
  let testbed = Testbed.of_node_table tables in
  let module Tcp = Vw_tcp.Tcp in
  let client = ref None in
  let workload tb =
    let node1 = Testbed.node tb "node1" in
    let node2 = Testbed.node tb "node2" in
    ignore
      (Tcp.listen (Testbed.tcp node2) ~port:0x4000 ~on_accept:(fun conn ->
           Tcp.on_data conn (fun _ -> ())));
    let conn =
      Tcp.connect (Testbed.tcp node1) ~src_port:0x6000
        ~dst:(Host.ip (Testbed.host node2))
        ~dst_port:0x4000
    in
    Tcp.on_established conn (fun () -> Tcp.send conn (Bytes.create 5_000));
    client := Some conn
  in
  match
    Scenario.run testbed ~script ~max_duration:(Simtime.sec 30.0) ~workload
  with
  | Error e -> Alcotest.fail e
  | Ok result ->
      check Alcotest.string "third appearance stopped the scenario" "STOPPED"
        (Scenario.outcome_to_string result.Scenario.outcome);
      let node2_fie = Testbed.fie (Testbed.node testbed "node2") in
      check (Alcotest.option Alcotest.int) "exactly 3 matches of that seq"
        (Some 3)
        (Fie.counter_value node2_fie "RT1");
      check Alcotest.int "both drops happened" 2
        (Fie.stats node2_fie).Fie.faults_drop;
      let conn = Option.get !client in
      (* appearance 1 is the (undroppable-by-TCP) handshake ack carrying the
         same sequence number; appearance 2 is the first data segment;
         appearance 3 is its RTO retransmission *)
      check Alcotest.bool "TCP retransmitted the pinned segment" true
        ((Vw_tcp.Tcp.stats conn).Vw_tcp.Tcp.retransmits >= 1);
      check Alcotest.bool "via a timeout" true
        ((Vw_tcp.Tcp.stats conn).Vw_tcp.Tcp.timeouts >= 1)

let test_or_not_conditions () =
  (* OR and NOT across the cascade: flag when (PING in [3,4]) OR
     (!(PONG < 6) i.e. PONG >= 6) first becomes true *)
  let src =
    script ~header:"boolean_ops"
      ~rules:
        {|
PING_R: (udp_ping, alice, bob, RECV)
PONG_R: (udp_pong, bob, alice, RECV)
HITS: (bob)
(TRUE) >> ENABLE_CNTR( PING_R ); ENABLE_CNTR( PONG_R );
(((PING_R >= 3) && (PING_R <= 4)) || (!(PING_R < 6))) >> INCR_CNTR( HITS, 1 );
|}
  in
  let _, testbed, _, _ = run_scenario src in
  let bob_fie = Testbed.fie (Testbed.node testbed "bob") in
  (* rising edges: at PING=3 (left disjunct) and again at PING=6 (right
     disjunct, after the condition fell at PING=5) *)
  check (Alcotest.option Alcotest.int) "two rising edges" (Some 2)
    (Fie.counter_value bob_fie "HITS")

let test_elapsed_time_invariant () =
  (* the paper's timing-check idiom: stamp a moment, measure to another,
     flag if the gap violates a bound. Pings are 5 ms apart; the gap from
     ping 2 to ping 8 is ~30 ms, well under the 500 ms bound. *)
  let src =
    script ~header:"timing_bound"
      ~rules:
        {|
PING_R: (udp_ping, alice, bob, RECV)
T: (bob)
(TRUE) >> ENABLE_CNTR( PING_R );
((PING_R = 2)) >> SET_CURTIME( T );
((PING_R = 8)) >> ELAPSED_TIME( T );
((T > 500)) >> FLAG_ERROR;
|}
  in
  let r, testbed, _, _ = run_scenario src in
  check Alcotest.bool "bound respected" true (Scenario.passed r);
  let bob_fie = Testbed.fie (Testbed.node testbed "bob") in
  (match Fie.counter_value bob_fie "T" with
  | Some t -> check Alcotest.bool "measured ~30ms" true (t >= 25 && t <= 45)
  | None -> Alcotest.fail "no T");
  (* same script with an impossible bound must flag *)
  let strict =
    script ~header:"timing_bound_strict"
      ~rules:
        {|
PING_R: (udp_ping, alice, bob, RECV)
T: (bob)
(TRUE) >> ENABLE_CNTR( PING_R );
((PING_R = 2)) >> SET_CURTIME( T );
((PING_R = 8)) >> ELAPSED_TIME( T );
((T > 5)) >> FLAG_ERROR;
|}
  in
  let r, _, _, _ = run_scenario strict in
  check Alcotest.bool "tight bound flags" false (Scenario.passed r)

let test_runs_are_deterministic () =
  (* identical seeds must give bit-identical traces — the property that
     makes scripted fault injection reproducible *)
  let run_once () =
    let src =
      script ~header:"determinism"
        ~rules:
          {|
PING_R: (udp_ping, alice, bob, RECV)
(TRUE) >> ENABLE_CNTR( PING_R );
((PING_R = 2)) >> DUP( udp_ping, alice, bob, RECV );
((PING_R = 5)) >> DELAY( udp_ping, alice, bob, RECV, 30ms );
|}
    in
    let _, testbed, _, _ = run_scenario src in
    Format.asprintf "%a" Vw_core.Trace.pp (Testbed.trace testbed)
  in
  let first = run_once () in
  let second = run_once () in
  check Alcotest.bool "traces identical" true (String.equal first second);
  check Alcotest.bool "trace nonempty" true (String.length first > 100)

(* Scenario error paths: failures must be reported as values, not raised *)
let test_scenario_error_paths () =
  let testbed =
    Testbed.create
      [ ("alice", Vw_net.Mac.of_string "02:00:00:00:00:0a", alice_ip) ]
  in
  (* unparseable script *)
  (match Scenario.run testbed ~script:"SCENARIO junk" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "junk script accepted");
  (* control node not in the testbed *)
  let two_nodes =
    script ~header:"mismatch"
      ~rules:{|
P: (udp_ping, alice, bob, RECV)
(TRUE) >> ENABLE_CNTR( P );
|}
  in
  (match Scenario.run testbed ~script:two_nodes ~controller:"nosuch" with
  | Error e ->
      check Alcotest.bool "mentions the node" true
        (String.length e > 0)
  | Ok _ -> Alcotest.fail "bad controller accepted");
  (* a testbed missing one of the script's nodes still runs: the missing
     node simply does not participate (paper §3.1) *)
  match
    Scenario.run testbed ~script:two_nodes ~max_duration:(Simtime.ms 100)
  with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "partial testbed rejected: %s" e

(* --- generator-surfaced edge cases (fuzzer corpus distilled) ---

   The vw_check generator produces shapes the hand-written tests never
   tried: degenerate REORDER permutations arriving over the wire, rule
   chains that brush the cascade depth limit, DUP and MODIFY armed on the
   same frame, and DELAY timers that outlive the scenario. *)

(* Like [run_scenario] but records every payload bob's application sees,
   so tests can tell a modified frame from a pristine one. *)
let run_capture ?(count = 10) ?(max_duration = Simtime.sec 2.0) src =
  let testbed =
    Testbed.create
      [
        ("alice", Vw_net.Mac.of_string "02:00:00:00:00:0a", alice_ip);
        ("bob", Vw_net.Mac.of_string "02:00:00:00:00:0b", bob_ip);
      ]
  in
  let payloads = ref [] in
  let result =
    Scenario.run testbed ~script:src ~max_duration ~workload:(fun tb ->
        let engine = Testbed.engine tb in
        let alice = Testbed.host (Testbed.node tb "alice") in
        let bob = Testbed.host (Testbed.node tb "bob") in
        Host.udp_bind bob ~port:5001 (fun ~src:_ ~src_port:_ payload ->
            payloads := Bytes.to_string payload :: !payloads);
        for i = 0 to count - 1 do
          Engine.schedule_after engine
            ~delay:(i * Simtime.ms 5)
            (fun () ->
              Host.udp_send alice ~src_port:5000 ~dst:bob_ip ~dst_port:5001
                (Bytes.make 32 'p'))
        done)
  in
  match result with
  | Error e -> Alcotest.failf "scenario failed to run: %s" e
  | Ok r -> (r, testbed, List.rev !payloads)

let test_reorder_empty_permutation () =
  (* an empty order array (the fuzzer's favourite degenerate table) must
     normalize to the identity at init: every buffered frame released in
     arrival order, nothing lost, no crash *)
  let src =
    script ~header:"reorder_empty"
      ~rules:
        {|
PING_R: (udp_ping, alice, bob, RECV)
(TRUE) >> ENABLE_CNTR( PING_R );
((PING_R >= 1)) >> REORDER( udp_ping, alice, bob, RECV, 3, [3 1 2] );
|}
  in
  let tables = compile src in
  let actions =
    Array.map
      (fun (a : Tables.action_entry) ->
        match a.Tables.act with
        | Tables.A_reorder (s, n, _) ->
            { a with Tables.act = Tables.A_reorder (s, n, [||]) }
        | _ -> a)
      tables.Tables.actions
  in
  let tables = { tables with Tables.actions } in
  let testbed =
    Testbed.create
      [
        ("alice", Vw_net.Mac.of_string "02:00:00:00:00:0a", alice_ip);
        ("bob", Vw_net.Mac.of_string "02:00:00:00:00:0b", bob_ip);
      ]
  in
  let nodes = [ Testbed.node testbed "alice"; Testbed.node testbed "bob" ] in
  List.iter
    (fun node ->
      match Fie.init_local (Testbed.fie node) ~controller_nid:0 tables with
      | Ok () -> ()
      | Error e -> Alcotest.failf "init: %s" e)
    nodes;
  List.iter (fun node -> Fie.start_local (Testbed.fie node)) nodes;
  let engine = Testbed.engine testbed in
  let alice = Testbed.host (Testbed.node testbed "alice") in
  let bob = Testbed.host (Testbed.node testbed "bob") in
  let arrivals = ref [] in
  Host.udp_bind bob ~port:5001 (fun ~src:_ ~src_port:_ payload ->
      arrivals := Bytes.to_string payload :: !arrivals);
  List.iteri
    (fun i tag ->
      Engine.schedule_after engine
        ~delay:(i * Simtime.ms 2)
        (fun () ->
          Host.udp_send alice ~src_port:5000 ~dst:bob_ip ~dst_port:5001
            (Bytes.of_string tag)))
    [ "one"; "two"; "three" ];
  Testbed.run testbed ~until:(Simtime.ms 100) ();
  check (Alcotest.list Alcotest.string)
    "empty permutation degrades to identity" [ "one"; "two"; "three" ]
    (List.rev !arrivals)

(* A linear rule chain of [k] counters: the first ping trips rule 1, each
   rule's increment trips the next, one cascade round per link. *)
let cascade_chain_script k =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "PING_R: (udp_ping, alice, bob, RECV)\n";
  for i = 1 to k do
    Buffer.add_string buf (Printf.sprintf "X%d: (bob)\n" i)
  done;
  Buffer.add_string buf "(TRUE) >> ENABLE_CNTR( PING_R );\n";
  Buffer.add_string buf "((PING_R >= 1)) >> INCR_CNTR( X1, 1 );\n";
  for i = 1 to k - 1 do
    Buffer.add_string buf
      (Printf.sprintf "((X%d >= 1)) >> INCR_CNTR( X%d, 1 );\n" i (i + 1))
  done;
  script ~header:(Printf.sprintf "chain%d" k) ~rules:(Buffer.contents buf)

let test_cascade_chain_converges_under_limit () =
  let r, testbed, _, _ = run_scenario (cascade_chain_script 90) in
  check Alcotest.bool "passed" true (Scenario.passed r);
  let bob_fie = Testbed.fie (Testbed.node testbed "bob") in
  check (Alcotest.option Alcotest.int) "chain ran to the end" (Some 1)
    (Fie.counter_value bob_fie "X90");
  check Alcotest.int "no overflow" 0
    (Fie.stats bob_fie).Fie.cascade_overflows

let test_cascade_chain_overflow_reported () =
  (* one link past the 100-round bound: the engine must cut the cascade
     and report rule -1, exactly like a divergent oscillator *)
  let r, testbed, _, _ = run_scenario (cascade_chain_script 120) in
  check Alcotest.bool "overflow flagged as error" true
    (List.exists (fun e -> e.Scenario.err_rule = -1) r.Scenario.errors);
  check Alcotest.bool "not passed" false (Scenario.passed r);
  let bob_fie = Testbed.fie (Testbed.node testbed "bob") in
  check Alcotest.bool "overflow counted" true
    ((Fie.stats bob_fie).Fie.cascade_overflows >= 1);
  check (Alcotest.option Alcotest.int) "tail of the chain never reached"
    (Some 0)
    (Fie.counter_value bob_fie "X120")

(* MODIFY pattern at frame offset 40: zeroes the UDP checksum (0 = "not
   computed", accepted by the stack) and stamps "XX" over the first two
   payload bytes — a corruption that survives delivery, so tests can see
   exactly which copies carry it. *)
let modify_visible = "(40 0x00005858)"

let count_marked payloads =
  List.length
    (List.filter
       (fun p -> String.length p >= 2 && String.sub p 0 2 = "XX")
       payloads)

let test_dup_after_modify_same_point () =
  (* both armed on the same (point, filter) and frame: only the first
     armed fault in action-id order applies — MODIFY here, DUP never
     fires *)
  let src =
    script ~header:"modify_then_dup"
      ~rules:
        (Printf.sprintf
           {|
PING_R: (udp_ping, alice, bob, RECV)
(TRUE) >> ENABLE_CNTR( PING_R );
((PING_R = 2)) >> MODIFY( udp_ping, alice, bob, RECV, %s );
((PING_R = 2)) >> DUP( udp_ping, alice, bob, RECV );
|}
           modify_visible)
  in
  let _, testbed, payloads = run_capture src in
  check Alcotest.int "no duplicate: 10 deliveries" 10 (List.length payloads);
  check Alcotest.int "exactly one marked frame" 1 (count_marked payloads);
  let bob_fie = Testbed.fie (Testbed.node testbed "bob") in
  check Alcotest.int "modify fired" 1 (Fie.stats bob_fie).Fie.faults_modify;
  check Alcotest.int "dup shadowed" 0 (Fie.stats bob_fie).Fie.faults_dup

let test_modify_after_dup_same_point () =
  (* same pair, opposite order: DUP wins, the copy and the original are
     both pristine and MODIFY never fires *)
  let src =
    script ~header:"dup_then_modify"
      ~rules:
        (Printf.sprintf
           {|
PING_R: (udp_ping, alice, bob, RECV)
(TRUE) >> ENABLE_CNTR( PING_R );
((PING_R = 2)) >> DUP( udp_ping, alice, bob, RECV );
((PING_R = 2)) >> MODIFY( udp_ping, alice, bob, RECV, %s );
|}
           modify_visible)
  in
  let _, testbed, payloads = run_capture src in
  check Alcotest.int "duplicate delivered: 11" 11 (List.length payloads);
  check Alcotest.int "nothing marked" 0 (count_marked payloads);
  let bob_fie = Testbed.fie (Testbed.node testbed "bob") in
  check Alcotest.int "dup fired" 1 (Fie.stats bob_fie).Fie.faults_dup;
  check Alcotest.int "modify shadowed" 0 (Fie.stats bob_fie).Fie.faults_modify

let test_dup_of_modified_frame_across_points () =
  (* MODIFY at alice's egress, DUP at bob's ingress: the duplicate must be
     a copy of the MODIFIED frame — two marked deliveries *)
  let src =
    script ~header:"modify_send_dup_recv"
      ~rules:
        (Printf.sprintf
           {|
PING_S: (udp_ping, alice, bob, SEND)
PING_R: (udp_ping, alice, bob, RECV)
(TRUE) >> ENABLE_CNTR( PING_S ); ENABLE_CNTR( PING_R );
((PING_S = 2)) >> MODIFY( udp_ping, alice, bob, SEND, %s );
((PING_R = 2)) >> DUP( udp_ping, alice, bob, RECV );
|}
           modify_visible)
  in
  let _, testbed, payloads = run_capture src in
  check Alcotest.int "11 deliveries" 11 (List.length payloads);
  check Alcotest.int "both copies carry the modification" 2
    (count_marked payloads);
  let alice_fie = Testbed.fie (Testbed.node testbed "alice") in
  let bob_fie = Testbed.fie (Testbed.node testbed "bob") in
  check Alcotest.int "modify at egress" 1
    (Fie.stats alice_fie).Fie.faults_modify;
  check Alcotest.int "dup at ingress" 1 (Fie.stats bob_fie).Fie.faults_dup

let test_delay_pending_across_stop () =
  (* a DELAY-stolen frame whose timer outlives the scenario: the late
     reinjection must still deliver cleanly while the testbed drains *)
  let src =
    script ~header:"delay_past_stop"
      ~rules:
        {|
PING_R: (udp_ping, alice, bob, RECV)
(TRUE) >> ENABLE_CNTR( PING_R );
((PING_R = 1)) >> DELAY( udp_ping, alice, bob, RECV, 500ms );
((PING_R = 5)) >> STOP;
|}
  in
  let testbed =
    Testbed.create
      [
        ("alice", Vw_net.Mac.of_string "02:00:00:00:00:0a", alice_ip);
        ("bob", Vw_net.Mac.of_string "02:00:00:00:00:0b", bob_ip);
      ]
  in
  let arrivals = ref [] in
  let result =
    Scenario.run testbed ~script:src ~max_duration:(Simtime.sec 2.0)
      ~workload:(fun tb ->
        let engine = Testbed.engine tb in
        let alice = Testbed.host (Testbed.node tb "alice") in
        let bob = Testbed.host (Testbed.node tb "bob") in
        Host.udp_bind bob ~port:5001 (fun ~src:_ ~src_port:_ payload ->
            arrivals := Bytes.to_string payload :: !arrivals);
        List.iteri
          (fun i tag ->
            Engine.schedule_after engine
              ~delay:(i * Simtime.ms 5)
              (fun () ->
                Host.udp_send alice ~src_port:5000 ~dst:bob_ip
                  ~dst_port:5001
                  (Bytes.of_string tag)))
          [ "one"; "two"; "three"; "four"; "five" ])
  in
  let r = match result with Error e -> Alcotest.fail e | Ok r -> r in
  check Alcotest.string "stopped before the delay matured" "STOPPED"
    (Scenario.outcome_to_string r.Scenario.outcome);
  check Alcotest.bool "stop well before 500ms" true
    (r.Scenario.duration < Simtime.ms 500);
  check Alcotest.int "only the undelayed pings so far" 4
    (List.length !arrivals);
  (* drain past the delay timer: the stolen frame must reappear *)
  Testbed.run testbed ~until:(Simtime.sec 1.0) ();
  check (Alcotest.list Alcotest.string) "delayed frame delivered last"
    [ "two"; "three"; "four"; "five"; "one" ]
    (List.rev !arrivals)

(* The six tables are the script's compiled form: [Tables.eval_cond], fed
   the term statuses [Tables.eval_term] computes, must give each rule's
   condition as written, over a grid of counter values that flips every
   term both ways (and so takes every && and || both ways). *)
let test_compiled_eval_term_cond () =
  let src =
    script ~header:"eval_forms"
      ~rules:
        {|
PING_R: (udp_ping, alice, bob, RECV)
X: (bob)
Y: (bob)
(TRUE) >> ENABLE_CNTR( PING_R );
(((X >= 3) && (X <= 4)) || (!(Y < 6))) >> INCR_CNTR( X, 1 );
((X = Y)) >> INCR_CNTR( Y, 1 );
(((X > 1) || (Y > 2)) && (!((X < 5) && (Y >= 1)))) >> INCR_CNTR( Y, 1 );
|}
  in
  let tables = compile src in
  (* by rule index *)
  let written x y =
    [|
      true;
      (x >= 3 && x <= 4) || not (y < 6);
      x = y;
      (x > 1 || y > 2) && not (x < 5 && y >= 1);
    |]
  in
  check Alcotest.int "one condition per rule" 4
    (Array.length tables.Tables.conds);
  let n_terms = Array.length tables.Tables.terms in
  for vx = 0 to 7 do
    for vy = 0 to 7 do
      let counter_values =
        Array.map
          (fun (ce : Tables.counter_entry) ->
            match ce.Tables.cname with "X" -> vx | "Y" -> vy | _ -> 0)
          tables.Tables.counters
      in
      let term_status =
        Array.init n_terms (Tables.eval_term tables ~counter_values)
      in
      Array.iteri
        (fun did _ ->
          check Alcotest.bool
            (Printf.sprintf "cond %d at X=%d Y=%d" did vx vy)
            (written vx vy).(tables.Tables.rule_of_cond.(did))
            (Tables.eval_cond tables ~term_status did))
        tables.Tables.conds
    done
  done

(* --- injected frames: Testbed.process_batch against the hook chain ---

   Frames are hand-built (valid UDP all the way through bob's stack, the
   payload carrying a tag the capture can read) and handed to bob's
   ingress on two fresh testbeds: through Testbed.process_batch, and as
   bytes off the wire through the installed ingress hook chain. Both must
   give identical deliveries, identical engine stats and an identical
   binary event log — including when DELAY steals a frame, a REORDER
   window spans two process_batch calls, or STOP or FAIL cuts the list
   short. *)

let batch_frame tag =
  let payload = Bytes.make 32 'p' in
  Bytes.blit_string tag 0 payload 0 (min (String.length tag) 8);
  let udp =
    Vw_net.Udp.to_bytes ~src:alice_ip ~dst:bob_ip
      (Vw_net.Udp.make ~src_port:5000 ~dst_port:5001 payload)
  in
  let ip =
    Vw_net.Ipv4.make ~protocol:Vw_net.Ipv4.protocol_udp ~src:alice_ip
      ~dst:bob_ip udp
  in
  Vw_net.Eth.make
    ~dst:(Vw_net.Mac.of_string "02:00:00:00:00:0b")
    ~src:(Vw_net.Mac.of_string "02:00:00:00:00:0a")
    ~ethertype:Vw_net.Eth.ethertype_ipv4 (Vw_net.Ipv4.to_bytes ip)

let batch_frames n = List.init n (fun i -> batch_frame (Printf.sprintf "%03d" (i + 1)))

(* bob (nid 1) is the controller so STOP executes locally and reaches the
   sim engine synchronously, mid-list. bob's NIC is re-attached to its
   own uplink through a netif that also hands the test its receive
   callback: [wire frame] delivers [frame] the way the link would. *)
let batch_testbed src =
  let testbed =
    Testbed.create
      [
        ("alice", Vw_net.Mac.of_string "02:00:00:00:00:0a", alice_ip);
        ("bob", Vw_net.Mac.of_string "02:00:00:00:00:0b", bob_ip);
      ]
  in
  Testbed.enable_observability testbed;
  let tables = compile src in
  let nodes = [ Testbed.node testbed "alice"; Testbed.node testbed "bob" ] in
  List.iter
    (fun node ->
      let fie = Testbed.fie node in
      Fie.set_report_handler fie (fun _ -> Engine.stop (Testbed.engine testbed));
      match Fie.init_local fie ~controller_nid:1 tables with
      | Ok () -> ()
      | Error e -> Alcotest.failf "init: %s" e)
    nodes;
  List.iter (fun node -> Fie.start_local (Testbed.fie node)) nodes;
  let arrivals = ref [] in
  let bob_node = Testbed.node testbed "bob" in
  let bob = Testbed.host bob_node in
  Host.udp_bind bob ~port:5001 (fun ~src:_ ~src_port:_ payload ->
      arrivals := Bytes.sub_string payload 0 3 :: !arrivals);
  let uplink =
    match Testbed.link bob_node with
    | Some l -> Vw_link.Netif.of_link_endpoint (Vw_link.Link.endpoint_a l)
    | None -> Alcotest.fail "bob has no uplink"
  in
  let receive = ref ignore in
  Host.attach bob
    {
      uplink with
      Vw_link.Netif.set_receive =
        (fun f ->
          receive := f;
          uplink.Vw_link.Netif.set_receive f);
    };
  (testbed, arrivals, fun frame -> !receive frame)

(* one run: give [n] tagged frames to bob's ingress, drain, and return
   every observable the two paths must share. [`Process_batch cut] makes
   two calls, the first with frames 1..cut; [`Wire] delivers them one by
   one until the scenario stops, as the link would (a failed host's NIC
   drops the rest itself). *)
let batch_run ~scenario ~via ~n src =
  let testbed, arrivals, wire = batch_testbed src in
  let bob = Testbed.node testbed "bob" in
  let frames = batch_frames n in
  let processed =
    match via with
    | `Process_batch cut ->
        let call = Testbed.process_batch testbed bob Vw_stack.Hook.Ingress in
        let head = List.filteri (fun i _ -> i < cut) frames
        and tail = List.filteri (fun i _ -> i >= cut) frames in
        let first = call head in
        if first < List.length head then first else first + call tail
    | `Wire ->
        let rec feed k = function
          | [] -> k
          | frame :: rest ->
              wire frame;
              if Engine.stop_requested (Testbed.engine testbed) then k + 1
              else feed (k + 1) rest
        in
        feed 0 frames
  in
  Testbed.run testbed ~until:(Simtime.sec 1.0) ();
  let stats = Fie.stats_fields (Fie.stats (Testbed.fie bob)) in
  let events =
    match Testbed.events_binary testbed ~scenario with
    | Some s -> s
    | None -> Alcotest.fail "no binary event log"
  in
  (processed, List.rev !arrivals, stats, events)

(* the process_batch run, after checking it against the wire; FAIL passes
   [~deliveries:false] (see test_batch_fail_cuts_short) *)
let same_as_hook_chain ?(cut = max_int) ?(deliveries = true) ~scenario ~n src
    =
  let _, r_arrivals, r_stats, r_events =
    batch_run ~scenario ~via:`Wire ~n src
  in
  let ((_, arrivals, stats, events) as got) =
    batch_run ~scenario ~via:(`Process_batch cut) ~n src
  in
  if deliveries then
    check
      (Alcotest.list Alcotest.string)
      "deliveries as through the hook chain" r_arrivals arrivals;
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "engine stats as through the hook chain" r_stats stats;
  check Alcotest.bool "binary event log byte-identical to the hook chain's"
    true
    (String.equal r_events events);
  got

let test_batch_equals_hook_chain () =
  let src =
    script ~header:"batch_parity"
      ~rules:
        {|
PING_R: (udp_ping, alice, bob, RECV)
(TRUE) >> ENABLE_CNTR( PING_R );
((PING_R = 3)) >> DROP( udp_ping, alice, bob, RECV );
((PING_R = 5)) >> DUP( udp_ping, alice, bob, RECV );
|}
  in
  let processed, arrivals, _, _ =
    same_as_hook_chain ~scenario:"batch_parity" ~n:12 src
  in
  check Alcotest.int "all frames processed" 12 processed;
  (* frame 3 dropped, frame 5 duplicated: 12 deliveries *)
  check Alcotest.int "deliveries" 12 (List.length arrivals);
  check Alcotest.bool "frame 3 missing" false (List.mem "003" arrivals);
  check Alcotest.int "frame 5 twice" 2
    (List.length (List.filter (String.equal "005") arrivals))

let test_batch_delay_mid_batch () =
  (* the DELAY steals frame 2 of 5; its timer matures after the call
     returns, and it must arrive last *)
  let src =
    script ~header:"batch_delay"
      ~rules:
        {|
PING_R: (udp_ping, alice, bob, RECV)
(TRUE) >> ENABLE_CNTR( PING_R );
((PING_R = 2)) >> DELAY( udp_ping, alice, bob, RECV, 10ms );
|}
  in
  let _, arrivals, _, _ =
    same_as_hook_chain ~scenario:"batch_delay" ~n:5 src
  in
  check
    (Alcotest.list Alcotest.string)
    "delayed frame overtaken"
    [ "001"; "003"; "004"; "005"; "002" ]
    arrivals

let test_batch_reorder_across_boundary () =
  (* a 3-frame REORDER window filled by two calls, frames 1-2 then 3:
     the buffer must outlive the first call and release 3-1-2 once the
     third frame lands in the second *)
  let src =
    script ~header:"batch_reorder"
      ~rules:
        {|
PING_R: (udp_ping, alice, bob, RECV)
(TRUE) >> ENABLE_CNTR( PING_R );
((PING_R >= 1)) >> REORDER( udp_ping, alice, bob, RECV, 3, [3 1 2] );
|}
  in
  let processed, arrivals, _, _ =
    same_as_hook_chain ~cut:2 ~scenario:"batch_reorder" ~n:3 src
  in
  check Alcotest.int "both calls processed" 3 processed;
  check
    (Alcotest.list Alcotest.string)
    "window released 3 1 2 across the boundary"
    [ "003"; "001"; "002" ]
    arrivals

let test_batch_stop_cuts_short () =
  (* STOP on the third frame: the triggering frame's verdict still
     applies and the tail of the list is never processed, so it is never
     classified or counted either *)
  let src =
    script ~header:"batch_stop"
      ~rules:
        {|
PING_R: (udp_ping, alice, bob, RECV)
(TRUE) >> ENABLE_CNTR( PING_R );
((PING_R = 3)) >> STOP;
|}
  in
  let processed, arrivals, stats, _ =
    same_as_hook_chain ~scenario:"batch_stop" ~n:10 src
  in
  check Alcotest.int "batch cut short at the STOP frame" 3 processed;
  check
    (Alcotest.list Alcotest.string)
    "the STOP frame itself was still delivered"
    [ "001"; "002"; "003" ]
    arrivals;
  check (Alcotest.option Alcotest.int) "inspected exactly the processed head"
    (Some 3)
    (List.assoc_opt "packets_inspected" stats)

let test_batch_fail_cuts_short () =
  (* FAIL( bob ) on the third frame: bob's NIC goes silent, so the frames
     after it are never inspected, counted or recorded. The third frame
     itself differs: off the wire it is already past the NIC and reaches
     the socket, while process_batch hands its Accept to Host.reinject,
     which drops frames on a failed host. *)
  let src =
    script ~header:"batch_fail"
      ~rules:
        {|
PING_R: (udp_ping, alice, bob, RECV)
(TRUE) >> ENABLE_CNTR( PING_R );
((PING_R = 3)) >> FAIL( bob );
|}
  in
  let processed, arrivals, stats, _ =
    same_as_hook_chain ~deliveries:false ~scenario:"batch_fail" ~n:10 src
  in
  check Alcotest.int "batch cut short at the FAIL frame" 3 processed;
  check
    (Alcotest.list Alcotest.string)
    "the FAIL frame died with its host" [ "001"; "002" ] arrivals;
  check (Alcotest.option Alcotest.int) "inspected exactly the processed head"
    (Some 3)
    (List.assoc_opt "packets_inspected" stats)

(* the entry conditions: nothing reaches the engine from a call with no
   frames or on a node that is already failed *)
let test_batch_entry () =
  let src =
    script ~header:"batch_entry"
      ~rules:
        {|
PING_R: (udp_ping, alice, bob, RECV)
(TRUE) >> ENABLE_CNTR( PING_R );
|}
  in
  let testbed, arrivals, _ = batch_testbed src in
  let bob = Testbed.node testbed "bob" in
  let inspected () = (Fie.stats (Testbed.fie bob)).Fie.packets_inspected in
  check Alcotest.int "an empty list processes nothing" 0
    (Testbed.process_batch testbed bob Vw_stack.Hook.Ingress []);
  Host.fail (Testbed.host bob);
  check Alcotest.int "a failed node processes no frame" 0
    (Testbed.process_batch testbed bob Vw_stack.Hook.Ingress (batch_frames 4));
  check Alcotest.int "nothing inspected" 0 (inspected ());
  Testbed.run testbed ~until:(Simtime.sec 1.0) ();
  check (Alcotest.list Alcotest.string) "nothing delivered" [] !arrivals

let suite =
  [
    ( "engine.classifier",
      [
        Alcotest.test_case "first match wins" `Quick test_classify_first_match;
        Alcotest.test_case "mask matching" `Quick test_classify_mask;
        Alcotest.test_case "variable binding" `Quick test_classify_var_binding;
        Alcotest.test_case "truncated frames" `Quick test_classify_truncated_frame;
        qtest prop_compiled_equals_linear;
        Alcotest.test_case "compiled classify allocates O(1) per frame" `Quick
          test_compiled_classify_no_alloc;
        Alcotest.test_case "compiled eval_term / eval_cond" `Quick
          test_compiled_eval_term_cond;
        Alcotest.test_case "equivalence cases reach the edge shapes" `Quick
          test_equiv_shapes;
        qtest prop_scanned_equals_model;
      ] );
    ( "engine.batch",
      [
        Alcotest.test_case "process_batch == ingress hook chain" `Quick
          test_batch_equals_hook_chain;
        Alcotest.test_case "DELAY steals a frame mid-batch" `Quick
          test_batch_delay_mid_batch;
        Alcotest.test_case "REORDER window spans a chunk boundary" `Quick
          test_batch_reorder_across_boundary;
        Alcotest.test_case "STOP cuts the batch short" `Quick
          test_batch_stop_cuts_short;
        Alcotest.test_case "FAIL cuts the batch short" `Quick
          test_batch_fail_cuts_short;
        Alcotest.test_case "an empty list or failed node processes nothing"
          `Quick test_batch_entry;
      ] );
    ( "engine.counters",
      [
        Alcotest.test_case "SEND and RECV sides" `Quick test_counters_both_sides;
        Alcotest.test_case "enable gating" `Quick test_disabled_counter_does_not_count;
        Alcotest.test_case "arithmetic cascade" `Quick test_counter_arithmetic_cascade;
        Alcotest.test_case "SET_CURTIME / ELAPSED_TIME" `Quick test_set_curtime_elapsed;
      ] );
    ( "engine.faults",
      [
        Alcotest.test_case "DROP at receiver" `Quick test_drop_fault;
        Alcotest.test_case "DROP at sender" `Quick test_drop_at_send_side;
        Alcotest.test_case "DELAY" `Quick test_delay_fault;
        Alcotest.test_case "DUP" `Quick test_dup_fault;
        Alcotest.test_case "MODIFY random" `Quick test_modify_fault_corrupts_checksum;
        Alcotest.test_case "MODIFY pattern" `Quick test_modify_fault_explicit_pattern;
        Alcotest.test_case "REORDER" `Quick test_reorder_fault;
        Alcotest.test_case "REORDER corrupt permutation" `Quick
          test_reorder_corrupt_permutation;
        Alcotest.test_case "level-armed window" `Quick
          test_fault_only_while_condition_holds;
      ] );
    ( "engine.edge",
      [
        Alcotest.test_case "REORDER empty permutation" `Quick
          test_reorder_empty_permutation;
        Alcotest.test_case "cascade chain under the depth limit" `Quick
          test_cascade_chain_converges_under_limit;
        Alcotest.test_case "cascade chain past the depth limit" `Quick
          test_cascade_chain_overflow_reported;
        Alcotest.test_case "MODIFY shadows DUP at one point" `Quick
          test_dup_after_modify_same_point;
        Alcotest.test_case "DUP shadows MODIFY at one point" `Quick
          test_modify_after_dup_same_point;
        Alcotest.test_case "DUP copies a modified frame" `Quick
          test_dup_of_modified_frame_across_points;
        Alcotest.test_case "DELAY pending across STOP" `Quick
          test_delay_pending_across_stop;
      ] );
    ( "engine.distributed",
      [
        Alcotest.test_case "FAIL across nodes" `Quick test_fail_action_distributed;
        Alcotest.test_case "STOP ends scenario" `Quick test_stop_ends_scenario;
        Alcotest.test_case "FLAG_ERROR reported" `Quick test_flag_error_reported;
        Alcotest.test_case "inactivity timeout" `Quick test_inactivity_timeout;
        Alcotest.test_case "scenario reuse" `Quick test_scenario_reuse_on_testbed;
        Alcotest.test_case "control plane exercised" `Quick test_control_messages_flow;
        Alcotest.test_case "VAR pins one segment (rt1 idiom)" `Quick
          test_var_tracks_one_segment;
        Alcotest.test_case "OR / NOT conditions" `Quick test_or_not_conditions;
        Alcotest.test_case "ELAPSED_TIME timing invariant" `Quick
          test_elapsed_time_invariant;
        Alcotest.test_case "determinism" `Quick test_runs_are_deterministic;
        Alcotest.test_case "scenario error paths" `Quick test_scenario_error_paths;
      ] );
  ]
