(* Tests for trace capture and the offline query combinators. *)

open Vw_sim
module Trace = Vw_core.Trace
module Q = Vw_core.Trace_query

let check = Alcotest.check

let mac i = Vw_net.Mac.of_int i
let ip i = Vw_net.Ip_addr.of_host_index i

(* Synthetic frames for deterministic query tests. *)
let udp_frame ~sport ~dport =
  let src = ip 1 and dst = ip 2 in
  let udp =
    Vw_net.Udp.to_bytes ~src ~dst
      (Vw_net.Udp.make ~src_port:sport ~dst_port:dport (Bytes.create 4))
  in
  Vw_net.Eth.make ~dst:(mac 2) ~src:(mac 1) ~ethertype:Vw_net.Eth.ethertype_ipv4
    (Vw_net.Ipv4.to_bytes
       (Vw_net.Ipv4.make ~protocol:Vw_net.Ipv4.protocol_udp ~src ~dst udp))

let tcp_frame ~flags =
  let src = ip 1 and dst = ip 2 in
  let seg =
    Vw_net.Tcp_segment.make ~flags ~src_port:80 ~dst_port:8080 (Bytes.create 0)
  in
  Vw_net.Eth.make ~dst:(mac 2) ~src:(mac 1) ~ethertype:Vw_net.Eth.ethertype_ipv4
    (Vw_net.Ipv4.to_bytes
       (Vw_net.Ipv4.make ~protocol:Vw_net.Ipv4.protocol_tcp ~src ~dst
          (Vw_net.Tcp_segment.to_bytes ~src ~dst seg)))

let rether_frame ~opcode =
  let p = Bytes.create 6 in
  Vw_util.Hexutil.set_int_be p ~pos:0 ~len:2 opcode;
  Vw_net.Eth.make ~dst:(mac 2) ~src:(mac 1)
    ~ethertype:Vw_net.Eth.ethertype_rether p

let syn = { Vw_net.Tcp_segment.no_flags with syn = true }
let synack = { Vw_net.Tcp_segment.no_flags with syn = true; ack = true }
let plain_ack = { Vw_net.Tcp_segment.no_flags with ack = true }

(* a small hand-built trace:
   t=0ms  a out SYN ; t=1ms b out SYNACK ; t=2ms a out ACK ;
   t=5ms a out udp 5000->6000 ; t=9ms b out token ; t=30ms a out udp *)
let sample_trace () =
  let t = Trace.create () in
  Trace.record t ~time:(Simtime.ms 0) ~node:"a" ~dir:`Out (tcp_frame ~flags:syn);
  Trace.record t ~time:(Simtime.ms 1) ~node:"b" ~dir:`Out (tcp_frame ~flags:synack);
  Trace.record t ~time:(Simtime.ms 2) ~node:"a" ~dir:`Out (tcp_frame ~flags:plain_ack);
  Trace.record t ~time:(Simtime.ms 5) ~node:"a" ~dir:`Out (udp_frame ~sport:5000 ~dport:6000);
  Trace.record t ~time:(Simtime.ms 9) ~node:"b" ~dir:`Out (rether_frame ~opcode:1);
  Trace.record t ~time:(Simtime.ms 30) ~node:"a" ~dir:`Out (udp_frame ~sport:5000 ~dport:6000);
  t

let is_syn = Q.tcp_where (fun seg -> seg.flags.syn && not seg.flags.ack)
let is_synack = Q.tcp_where (fun seg -> seg.flags.syn && seg.flags.ack)
let is_ack = Q.tcp_where (fun seg -> seg.flags.ack && not seg.flags.syn)
let is_udp = Q.udp_where (fun _ -> true)

let test_count_and_exists () =
  let t = sample_trace () in
  check Alcotest.int "two udp frames" 2 (Q.count t (Q.where is_udp));
  check Alcotest.int "one syn" 1 (Q.count t (Q.where is_syn));
  check Alcotest.int "node filter" 0 (Q.count t (Q.where ~node:"b" is_udp));
  check Alcotest.bool "rether exists" true
    (Q.exists t (Q.where (Q.rether_opcode 1)));
  check Alcotest.bool "no rether ack" false
    (Q.exists t (Q.where (Q.rether_opcode 0x10)))

let test_first_last () =
  let t = sample_trace () in
  (match Q.first t (Q.where is_udp) with
  | Some e -> check Alcotest.int "first udp at 5ms" (Simtime.ms 5) e.Trace.time
  | None -> Alcotest.fail "no udp found");
  match Q.last t (Q.where is_udp) with
  | Some e -> check Alcotest.int "last udp at 30ms" (Simtime.ms 30) e.Trace.time
  | None -> Alcotest.fail "no udp found"

let test_in_order () =
  let t = sample_trace () in
  check Alcotest.bool "handshake sequence" true
    (Q.in_order t [ Q.where is_syn; Q.where is_synack; Q.where is_ack ]);
  check Alcotest.bool "wrong order rejected" false
    (Q.in_order t [ Q.where is_synack; Q.where is_syn ]);
  check Alcotest.bool "empty list trivially true" true (Q.in_order t []);
  check Alcotest.bool "non-adjacent ok" true
    (Q.in_order t [ Q.where is_syn; Q.where (Q.rether_opcode 1) ])

let test_never_after () =
  let t = sample_trace () in
  check Alcotest.bool "no syn after the handshake ack" true
    (Q.never_after t ~cause:(Q.where is_ack) ~banned:(Q.where is_syn));
  check Alcotest.bool "udp does occur after syn" false
    (Q.never_after t ~cause:(Q.where is_syn) ~banned:(Q.where is_udp));
  check Alcotest.bool "vacuously true without cause" true
    (Q.never_after t
       ~cause:(Q.where (Q.rether_opcode 0x99))
       ~banned:(Q.where is_udp))

let test_within () =
  let t = sample_trace () in
  (* every SYN is answered by a SYNACK within 2 ms *)
  check Alcotest.bool "syn answered in time" true
    (Q.within t ~cause:(Q.where is_syn) ~effect_:(Q.where is_synack)
       ~window:(Simtime.ms 2));
  check Alcotest.bool "too tight a window" false
    (Q.within t ~cause:(Q.where is_syn) ~effect_:(Q.where is_synack)
       ~window:(Simtime.us 500));
  (* the first udp is NOT followed by another within 10 ms *)
  check Alcotest.bool "udp causality violated" false
    (Q.within t ~cause:(Q.where is_udp) ~effect_:(Q.where (Q.rether_opcode 1))
       ~window:(Simtime.ms 100))

let test_max_gap () =
  let t = sample_trace () in
  check
    (Alcotest.option Alcotest.int)
    "gap between the two udp frames" (Some (Simtime.ms 25))
    (Q.max_gap t (Q.where is_udp));
  check (Alcotest.option Alcotest.int) "single match has no gap" None
    (Q.max_gap t (Q.where is_syn))

let test_trace_capacity () =
  let t = Trace.create ~capacity:3 () in
  for i = 1 to 5 do
    Trace.record t ~time:(Simtime.ms i) ~node:"a" ~dir:`Out
      (udp_frame ~sport:1 ~dport:2)
  done;
  check Alcotest.int "bounded" 3 (Trace.length t);
  check Alcotest.bool "marked truncated" true (Trace.truncated t);
  Trace.clear t;
  check Alcotest.int "cleared" 0 (Trace.length t);
  check Alcotest.bool "flag reset" false (Trace.truncated t)

(* the ring drops the OLDEST entries: after wrap the retained window is the
   most recent [capacity] frames, still reported oldest-first *)
let test_trace_wrap_order () =
  let t = Trace.create ~capacity:3 () in
  for i = 1 to 7 do
    Trace.record t ~time:(Simtime.ms i) ~node:"a" ~dir:`Out
      (udp_frame ~sport:i ~dport:2)
  done;
  check Alcotest.int "retained" 3 (Trace.length t);
  check Alcotest.int "dropped oldest four" 4 (Trace.dropped t);
  check Alcotest.bool "truncated" true (Trace.truncated t);
  check
    (Alcotest.list Alcotest.int)
    "newest three, oldest first"
    [ Simtime.ms 5; Simtime.ms 6; Simtime.ms 7 ]
    (List.map (fun e -> e.Trace.time) (Trace.entries t));
  (* exactly at capacity: nothing dropped, order preserved *)
  let t2 = Trace.create ~capacity:3 () in
  for i = 1 to 3 do
    Trace.record t2 ~time:(Simtime.ms i) ~node:"a" ~dir:`Out
      (udp_frame ~sport:i ~dport:2)
  done;
  check Alcotest.bool "full but not truncated" false (Trace.truncated t2);
  check
    (Alcotest.list Alcotest.int)
    "all three in order"
    [ Simtime.ms 1; Simtime.ms 2; Simtime.ms 3 ]
    (List.map (fun e -> e.Trace.time) (Trace.entries t2));
  (* past the first slots: the ring grows (64, 128, 200), then wraps *)
  let t3 = Trace.create ~capacity:200 () in
  let record_until n =
    for i = Trace.length t3 + Trace.dropped t3 + 1 to n do
      Trace.record t3 ~time:(Simtime.ms i) ~node:"a" ~dir:`Out
        (udp_frame ~sport:1 ~dport:2)
    done
  in
  record_until 150;
  check
    (Alcotest.list Alcotest.int)
    "grown twice, all 150 in order"
    (List.init 150 (fun i -> Simtime.ms (i + 1)))
    (List.map (fun e -> e.Trace.time) (Trace.entries t3));
  record_until 500;
  check Alcotest.int "dropped oldest 300" 300 (Trace.dropped t3);
  check
    (Alcotest.list Alcotest.int)
    "newest 200, oldest first"
    (List.init 200 (fun i -> Simtime.ms (301 + i)))
    (List.map (fun e -> e.Trace.time) (Trace.entries t3))

(* the capacity is a bound, not an allocation: a fresh default testbed
   (capacity 1 000 000) holds a trace of a few words *)
let test_trace_grows_on_demand () =
  let tb = Vw_core.Testbed.create [ ("a", mac 1, ip 1); ("b", mac 2, ip 2) ] in
  let words = Obj.reachable_words (Obj.repr (Vw_core.Testbed.trace tb)) in
  if words >= 1_000 then
    Alcotest.failf "fresh trace reaches %d words, expected under 1000" words

(* [within] when a cause sits at the very end of the trace with no effect
   after it: the deadline is unmet, not vacuous *)
let test_within_no_effect_at_end () =
  let t = Trace.create () in
  Trace.record t ~time:(Simtime.ms 0) ~node:"a" ~dir:`Out (tcp_frame ~flags:syn);
  Trace.record t ~time:(Simtime.ms 1) ~node:"b" ~dir:`Out
    (tcp_frame ~flags:synack);
  Trace.record t ~time:(Simtime.ms 9) ~node:"a" ~dir:`Out
    (tcp_frame ~flags:syn);
  check Alcotest.bool "trailing cause misses its deadline" false
    (Q.within t ~cause:(Q.where is_syn) ~effect_:(Q.where is_synack)
       ~window:(Simtime.ms 2));
  (* no cause at all stays vacuously true *)
  check Alcotest.bool "no cause is vacuous" true
    (Q.within t
       ~cause:(Q.where (Q.rether_opcode 1))
       ~effect_:(Q.where is_synack) ~window:(Simtime.ms 2))

(* [max_gap] with exactly two matching entries: one gap, returned as-is *)
let test_max_gap_two_entries () =
  let t = Trace.create () in
  Trace.record t ~time:(Simtime.ms 3) ~node:"a" ~dir:`Out
    (udp_frame ~sport:1 ~dport:2);
  Trace.record t ~time:(Simtime.ms 11) ~node:"a" ~dir:`Out
    (udp_frame ~sport:1 ~dport:2);
  check
    (Alcotest.option Alcotest.int)
    "single gap" (Some (Simtime.ms 8))
    (Q.max_gap t (Q.where is_udp));
  check (Alcotest.option Alcotest.int) "empty trace" None
    (Q.max_gap (Trace.create ()) (Q.where is_udp))

(* [never_after] when cause and banned match the SAME entry: "at or after"
   includes the cause entry itself, so the property is violated *)
let test_never_after_same_entry () =
  let t = Trace.create () in
  Trace.record t ~time:(Simtime.ms 0) ~node:"a" ~dir:`Out
    (tcp_frame ~flags:syn);
  check Alcotest.bool "self-match violates" false
    (Q.never_after t ~cause:(Q.where is_syn) ~banned:(Q.where is_syn));
  check Alcotest.bool "disjoint banned passes" true
    (Q.never_after t ~cause:(Q.where is_syn) ~banned:(Q.where is_udp))

(* pcap export: header bytes, record framing, payload round-trip *)
let test_to_pcap () =
  let t = sample_trace () in
  let path = Filename.temp_file "vw_trace" ".pcap" in
  let oc = open_out_bin path in
  Trace.to_pcap t oc;
  close_out oc;
  let ic = open_in_bin path in
  let data = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  let u32 off =
    Char.code data.[off]
    lor (Char.code data.[off + 1] lsl 8)
    lor (Char.code data.[off + 2] lsl 16)
    lor (Char.code data.[off + 3] lsl 24)
  in
  let u16 off = Char.code data.[off] lor (Char.code data.[off + 1] lsl 8) in
  check Alcotest.int "magic (LE)" 0xa1b2c3d4 (u32 0);
  check Alcotest.int "version" 2 (u16 4);
  check Alcotest.int "minor" 4 (u16 6);
  check Alcotest.int "snaplen" 65535 (u32 16);
  check Alcotest.int "LINKTYPE_ETHERNET" 1 (u32 20);
  (* walk the records: count them and check the last timestamp (30 ms) *)
  let rec walk off n last_usec =
    if off >= String.length data then (n, last_usec)
    else
      let incl = u32 (off + 8) in
      check Alcotest.int "incl = orig" incl (u32 (off + 12));
      walk (off + 16 + incl) (n + 1) ((u32 off * 1_000_000) + u32 (off + 4))
  in
  let n, last_usec = walk 24 0 0 in
  check Alcotest.int "one record per entry" (Trace.length t) n;
  check Alcotest.int "last record at 30ms" 30_000 last_usec

let test_trace_pp () =
  let t = sample_trace () in
  let rendered = Format.asprintf "%a" Trace.pp t in
  check Alcotest.bool "mentions rether opcode" true
    (let needle = "rether" in
     let rec go i =
       i + String.length needle <= String.length rendered
       && (String.sub rendered i (String.length needle) = needle || go (i + 1))
     in
     go 0)

(* end-to-end: offline-verify the Figure 6 recovery deadline, like the
   paper's inactivity check but from the capture *)
let test_offline_recovery_deadline () =
  let tables =
    match Vw_fsl.Compile.parse_and_compile Vw_scripts.rether_failure with
    | Ok t -> t
    | Error e -> Alcotest.fail e
  in
  let testbed = Vw_core.Testbed.of_node_table tables in
  let ring =
    List.map
      (fun n -> Vw_stack.Host.mac (Vw_core.Testbed.host n))
      (Vw_core.Testbed.nodes testbed)
  in
  let rethers =
    List.map
      (fun n ->
        ( Vw_core.Testbed.name n,
          Vw_rether.Rether.install
            ~config:(Vw_rether.Rether.default_config ~ring)
            (Vw_core.Testbed.host n) ))
      (Vw_core.Testbed.nodes testbed)
  in
  let workload tb =
    List.iter
      (fun (nm, r) -> if nm = "node1" then Vw_rether.Rether.start r)
      rethers;
    let node1 = Vw_core.Testbed.node tb "node1" in
    let node4 = Vw_core.Testbed.node tb "node4" in
    ignore
      (Vw_tcp.Tcp.listen (Vw_core.Testbed.tcp node4) ~port:0x4000
         ~on_accept:(fun conn -> Vw_tcp.Tcp.on_data conn (fun _ -> ())));
    let conn =
      Vw_tcp.Tcp.connect (Vw_core.Testbed.tcp node1) ~src_port:0x6000
        ~dst:(Vw_stack.Host.ip (Vw_core.Testbed.host node4))
        ~dst_port:0x4000
    in
    Vw_tcp.Tcp.on_established conn (fun () ->
        Vw_tcp.Tcp.send conn (Bytes.create (1200 * 1000)))
  in
  (match
     Vw_core.Scenario.run testbed ~script:Vw_scripts.rether_failure
       ~max_duration:(Simtime.sec 120.0) ~workload
   with
  | Ok r -> check Alcotest.bool "scenario passed" true (Vw_core.Scenario.passed r)
  | Error e -> Alcotest.fail e);
  let trace = Vw_core.Testbed.trace testbed in
  let token_to ?after node =
    Q.where ~node:"node2" ~dir:`Out ?after (fun view ->
        Q.rether_opcode Vw_rether.Rether.opcode_token view
        && Vw_net.Mac.equal view.eth.dst (Vw_net.Mac.of_int node))
  in
  (* node3's crash is not itself in the trace; its last transmission is.
     Everything node2 sent to node3 after that moment hit a corpse. *)
  let last_sign_of_life =
    match Q.last trace (Q.where ~node:"node3" ~dir:`Out (fun _ -> true)) with
    | Some e -> e.Trace.time
    | None -> Alcotest.fail "node3 never transmitted"
  in
  check Alcotest.int "exactly 3 sends to the corpse" 3
    (Q.count trace (token_to ~after:last_sign_of_life 3));
  (* the reconstruction token to node4 follows the last dead send quickly *)
  let last_dead_send =
    match Q.last trace (token_to ~after:last_sign_of_life 3) with
    | Some e -> e.Trace.time
    | None -> Alcotest.fail "no dead sends"
  in
  check Alcotest.bool "recovery within 100ms of the last dead send" true
    (Q.exists trace
       (Q.where ~node:"node2" ~dir:`Out ~after:last_dead_send
          ~before:Simtime.(last_dead_send + Simtime.ms 100)
          (fun view ->
            Q.rether_opcode Vw_rether.Rether.opcode_token view
            && Vw_net.Mac.equal view.eth.dst (Vw_net.Mac.of_int 4))))

let suite =
  [
    ( "trace.query",
      [
        Alcotest.test_case "count / exists" `Quick test_count_and_exists;
        Alcotest.test_case "first / last" `Quick test_first_last;
        Alcotest.test_case "in_order" `Quick test_in_order;
        Alcotest.test_case "never_after" `Quick test_never_after;
        Alcotest.test_case "within" `Quick test_within;
        Alcotest.test_case "max_gap" `Quick test_max_gap;
        Alcotest.test_case "capacity / clear" `Quick test_trace_capacity;
        Alcotest.test_case "ring wrap keeps newest, oldest-first" `Quick
          test_trace_wrap_order;
        Alcotest.test_case "within: no effect at trace end" `Quick
          test_within_no_effect_at_end;
        Alcotest.test_case "max_gap: exactly two entries" `Quick
          test_max_gap_two_entries;
        Alcotest.test_case "never_after: cause is banned" `Quick
          test_never_after_same_entry;
        Alcotest.test_case "pcap export" `Quick test_to_pcap;
        Alcotest.test_case "pretty printing" `Quick test_trace_pp;
        Alcotest.test_case "offline Figure 6 deadline" `Quick
          test_offline_recovery_deadline;
        Alcotest.test_case "fresh testbed trace is not preallocated" `Quick
          test_trace_grows_on_demand;
      ] );
  ]
