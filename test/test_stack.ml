(* Tests for the host stack: hooks (the Netfilter analogue), IP/UDP
   delivery, timers, failure injection. *)

open Vw_sim
module Host = Vw_stack.Host
module Hook = Vw_stack.Hook

let check = Alcotest.check

let mac i = Vw_net.Mac.of_int i
let ip i = Vw_net.Ip_addr.of_host_index i

(* Two hosts joined by a direct link. *)
let pair ?(link_config = Vw_link.Link.default_config) () =
  let engine = Engine.create () in
  let link = Vw_link.Link.create engine link_config in
  let a = Host.create engine ~name:"a" ~mac:(mac 1) ~ip:(ip 1) in
  let b = Host.create engine ~name:"b" ~mac:(mac 2) ~ip:(ip 2) in
  Host.attach a (Vw_link.Netif.of_link_endpoint (Vw_link.Link.endpoint_a link));
  Host.attach b (Vw_link.Netif.of_link_endpoint (Vw_link.Link.endpoint_b link));
  Host.add_neighbor a (ip 2) (mac 2);
  Host.add_neighbor b (ip 1) (mac 1);
  (engine, a, b)

let test_udp_delivery () =
  let engine, a, b = pair () in
  let got = ref None in
  Host.udp_bind b ~port:9000 (fun ~src ~src_port payload ->
      got := Some (src, src_port, Bytes.to_string payload));
  Host.udp_send a ~src_port:5555 ~dst:(ip 2) ~dst_port:9000
    (Bytes.of_string "hello");
  Engine.run engine;
  match !got with
  | Some (src, src_port, payload) ->
      check Alcotest.bool "src ip" true (Vw_net.Ip_addr.equal src (ip 1));
      check Alcotest.int "src port" 5555 src_port;
      check Alcotest.string "payload" "hello" payload
  | None -> Alcotest.fail "datagram not delivered"

let test_udp_echo_roundtrip () =
  let engine, a, b = pair () in
  Host.udp_bind b ~port:7 (fun ~src ~src_port payload ->
      Host.udp_send b ~src_port:7 ~dst:src ~dst_port:src_port payload);
  let echoed = ref false in
  Host.udp_bind a ~port:1234 (fun ~src:_ ~src_port:_ payload ->
      if Bytes.to_string payload = "ping" then echoed := true);
  Host.udp_send a ~src_port:1234 ~dst:(ip 2) ~dst_port:7 (Bytes.of_string "ping");
  Engine.run engine;
  check Alcotest.bool "echo came back" true !echoed

let test_udp_bind_conflict () =
  let _, a, _ = pair () in
  Host.udp_bind a ~port:80 (fun ~src:_ ~src_port:_ _ -> ());
  Alcotest.check_raises "double bind"
    (Invalid_argument "Host.udp_bind: port 80 already bound") (fun () ->
      Host.udp_bind a ~port:80 (fun ~src:_ ~src_port:_ _ -> ()));
  Host.udp_unbind a ~port:80;
  Host.udp_bind a ~port:80 (fun ~src:_ ~src_port:_ _ -> ())

let test_nic_mac_filter () =
  (* b must ignore frames addressed to someone else *)
  let engine, a, b = pair () in
  Host.add_neighbor a (ip 9) (mac 9);
  let got = ref 0 in
  Host.udp_bind b ~port:9 (fun ~src:_ ~src_port:_ _ -> incr got);
  (* addressed to mac 9 but lands on b's NIC (direct link) *)
  Host.udp_send a ~src_port:1 ~dst:(ip 9) ~dst_port:9 (Bytes.create 1);
  Engine.run engine;
  check Alcotest.int "filtered by NIC" 0 !got;
  check Alcotest.int "b received nothing" 0 (Host.frames_received b)

(* --- the in-place receive path --- *)

(* recompute the header checksum of an IP datagram after a header edit *)
let reseal_ip p =
  Vw_util.Hexutil.set_int_be p ~pos:10 ~len:2 0;
  Vw_util.Hexutil.set_int_be p ~pos:10 ~len:2
    (Vw_util.Checksum.checksum p ~pos:0 ~len:Vw_net.Ipv4.header_size)

let flip p i = Bytes.set p i (Char.chr (Char.code (Bytes.get p i) lxor 0x01))

let test_receive_drops_rejected () =
  let engine, a, b = pair () in
  (* each variant rewrites a copy of the IP datagram [a] sends; the frame
     in flight is shared, so the hook never writes into it *)
  let variants =
    [
      ("flipped IPv4 header byte", fun p -> flip p 8);
      ("flipped UDP payload byte", fun p -> flip p 30);
      ( "IHL 6",
        fun p ->
          Bytes.set p 0 '\x46';
          reseal_ip p );
      ( "total length past the frame",
        fun p ->
          Vw_util.Hexutil.set_int_be p ~pos:2 ~len:2 (Bytes.length p + 1);
          reseal_ip p );
      ("UDP length 7", fun p -> Vw_util.Hexutil.set_int_be p ~pos:24 ~len:2 7);
      ( "UDP length past the IP payload",
        fun p -> Vw_util.Hexutil.set_int_be p ~pos:24 ~len:2 (Bytes.length p - 19) );
      ( "another destination",
        fun p ->
          Vw_net.Ip_addr.write (ip 3) p ~pos:16;
          reseal_ip p );
      ("zero UDP checksum", fun p -> Vw_util.Hexutil.set_int_be p ~pos:26 ~len:2 0);
    ]
  in
  let current = ref (fun (_ : bytes) -> ()) in
  ignore
    (Host.add_hook a Hook.Egress ~priority:0 ~name:"mutate" (fun frame ->
         let p = Bytes.copy frame.Vw_net.Eth.payload in
         !current p;
         Hook.Accept { frame with payload = p }));
  let got = ref [] in
  Host.udp_bind b ~port:9000 (fun ~src:_ ~src_port:_ payload ->
      got := Bytes.to_string payload :: !got);
  List.iter
    (fun (name, mutate) ->
      current := mutate;
      Host.udp_send a ~src_port:5555 ~dst:(ip 2) ~dst_port:9000
        (Bytes.of_string name))
    variants;
  Engine.run engine;
  check
    Alcotest.(list string)
    "only the unchecked datagram arrives" [ "zero UDP checksum" ] !got

let test_tcp_flipped_segment_dropped () =
  let engine, a, b = pair () in
  ignore (Vw_tcp.Tcp.attach b);
  let replies = ref 0 in
  Host.set_tap b (fun ~dir _ -> if dir = `Out then incr replies);
  (* a segment to a port nobody listens on: b answers a sound one with a
     RST, and must drop a corrupted one without a word *)
  let send ~corrupt =
    let seg =
      Vw_net.Tcp_segment.make ~seq:1000 ~src_port:4000 ~dst_port:80
        (Bytes.of_string "data")
    in
    let enc = Vw_net.Tcp_segment.to_bytes ~src:(ip 1) ~dst:(ip 2) seg in
    if corrupt then flip enc 21;
    Host.send_ip a ~protocol:Vw_net.Ipv4.protocol_tcp ~dst:(ip 2) enc;
    Engine.run engine
  in
  send ~corrupt:false;
  check Alcotest.int "a sound segment draws a RST" 1 !replies;
  send ~corrupt:true;
  check Alcotest.int "a flipped one draws nothing" 1 !replies

(* one 256-byte datagram, sent and delivered: 102 minor words now that
   addresses are immediate ints and a lossless link draws no loss (206
   before: the receiver's int32 source box, 8 words of PRNG draw, and 93 for
   the test's own [ip 2], which formatted and parsed a dotted quad; 241
   with option boxes in the host's table lookups and a list-of-records
   event heap, 404 when each header was encoded and decoded into its own
   buffer); the bound leaves ~10% *)
let test_datagram_allocation () =
  let engine, a, b = pair () in
  let payload = Bytes.make 256 'p' in
  let got = ref 0 in
  Host.udp_bind b ~port:9 (fun ~src:_ ~src_port:_ p -> got := !got + Bytes.length p);
  let once () =
    Host.udp_send a ~src_port:1 ~dst:(ip 2) ~dst_port:9 payload;
    Engine.run engine
  in
  once ();
  let w0 = Gc.minor_words () in
  once ();
  let words = Gc.minor_words () -. w0 in
  check Alcotest.int "delivered" 512 !got;
  if words > 112. then
    Alcotest.failf "one datagram allocated %.0f minor words (bound 112)" words

(* one 1000-byte TCP segment, sent, delivered and acknowledged: 550 minor
   words now that the segment is written into its datagram's buffer, so
   its payload is copied once on the way out, as [udp_send] copies it (717
   when the segment was encoded into a buffer of its own and copied again
   into the datagram); the bound leaves ~10% *)
let test_segment_allocation () =
  let engine, a, b = pair () in
  let got = ref 0 in
  ignore
    (Vw_tcp.Tcp.listen (Vw_tcp.Tcp.attach b) ~port:80 ~on_accept:(fun conn ->
         Vw_tcp.Tcp.on_data conn (fun p -> got := !got + Bytes.length p)));
  let conn =
    Vw_tcp.Tcp.connect (Vw_tcp.Tcp.attach a) ~src_port:5000 ~dst:(ip 2)
      ~dst_port:80
  in
  Engine.run engine;
  let payload = Bytes.make 1000 'p' in
  let once () =
    Vw_tcp.Tcp.send conn payload;
    Engine.run engine
  in
  once ();
  let w0 = Gc.minor_words () in
  once ();
  let words = Gc.minor_words () -. w0 in
  check Alcotest.int "delivered" 2000 !got;
  if words > 600. then
    Alcotest.failf "one segment allocated %.0f minor words (bound 600)" words

(* --- hooks --- *)

let test_hook_egress_order_and_drop () =
  let engine, a, b = pair () in
  let order = ref [] in
  let log name verdict frame =
    order := name :: !order;
    match verdict with `Accept -> Hook.Accept frame | `Drop -> Hook.Drop
  in
  ignore (Host.add_hook a Hook.Egress ~priority:200 ~name:"low" (log "low" `Accept));
  ignore (Host.add_hook a Hook.Egress ~priority:100 ~name:"high" (log "high" `Accept));
  let got = ref 0 in
  Host.udp_bind b ~port:9 (fun ~src:_ ~src_port:_ _ -> incr got);
  Host.udp_send a ~src_port:1 ~dst:(ip 2) ~dst_port:9 (Bytes.create 1);
  Engine.run engine;
  check (Alcotest.list Alcotest.string) "ascending priority on egress"
    [ "high"; "low" ] (List.rev !order);
  check Alcotest.int "delivered" 1 !got;
  (* a dropping hook consumes the packet *)
  ignore (Host.add_hook a Hook.Egress ~priority:150 ~name:"drop" (log "drop" `Drop));
  Host.udp_send a ~src_port:1 ~dst:(ip 2) ~dst_port:9 (Bytes.create 1);
  Engine.run engine;
  check Alcotest.int "dropped" 1 !got

let test_hook_ingress_order () =
  let engine, a, b = pair () in
  let order = ref [] in
  let log name frame =
    order := name :: !order;
    Hook.Accept frame
  in
  ignore (Host.add_hook b Hook.Ingress ~priority:100 ~name:"vw" (log "vw"));
  ignore (Host.add_hook b Hook.Ingress ~priority:200 ~name:"rll" (log "rll"));
  Host.udp_bind b ~port:9 (fun ~src:_ ~src_port:_ _ -> ());
  Host.udp_send a ~src_port:1 ~dst:(ip 2) ~dst_port:9 (Bytes.create 1);
  Engine.run engine;
  check (Alcotest.list Alcotest.string) "descending priority on ingress"
    [ "rll"; "vw" ] (List.rev !order)

let test_hook_transform () =
  let engine, a, b = pair () in
  (* an egress hook rewriting the payload (what MODIFY does) *)
  ignore
    (Host.add_hook a Hook.Egress ~priority:100 ~name:"rewrite"
       (fun frame ->
         let data = Vw_net.Eth.to_bytes frame in
         (* flip a UDP payload byte: offset 42 = 14 eth + 20 ip + 8 udp *)
         Bytes.set data 42 'X';
         Hook.Accept (Vw_net.Eth.of_bytes data)));
  let got = ref "" in
  Host.udp_bind b ~port:9 (fun ~src:_ ~src_port:_ payload ->
      got := Bytes.to_string payload);
  Host.udp_send a ~src_port:1 ~dst:(ip 2) ~dst_port:9 (Bytes.of_string "abc");
  Engine.run engine;
  (* the UDP checksum now fails at b, so nothing is delivered — transforming
     hooks see real end-to-end consequences *)
  check Alcotest.string "checksum killed it" "" !got

let test_hook_steal_reinject () =
  let engine, a, b = pair () in
  let stolen = ref None in
  ignore
    (Host.add_hook a Hook.Egress ~priority:100 ~name:"stealer" (fun frame ->
         if !stolen = None then begin
           stolen := Some frame;
           Hook.Stolen
         end
         else Hook.Accept frame));
  let got = ref 0 in
  Host.udp_bind b ~port:9 (fun ~src:_ ~src_port:_ _ -> incr got);
  Host.udp_send a ~src_port:1 ~dst:(ip 2) ~dst_port:9 (Bytes.create 1);
  Engine.run engine;
  check Alcotest.int "stolen, not delivered" 0 !got;
  (* reinject below priority 100: must NOT pass the stealer again *)
  (match !stolen with
  | Some frame -> Host.reinject a Hook.Egress ~from_priority:100 frame
  | None -> Alcotest.fail "hook never ran");
  Engine.run engine;
  check Alcotest.int "reinjected frame delivered" 1 !got

(* Two hooks tie at priority 100, and reinjection starts from that
   priority, which has hooks on both sides. Egress walks ascending
   (priority, insertion order), ingress the reverse, so the tied pair
   swaps between the two chains; reinjection skips every hook at the
   priority it starts from. *)
let test_hook_ties_and_reinject_boundary () =
  let engine, a, b = pair () in
  let order = ref [] in
  let sent = ref None in
  List.iter
    (fun (host, point) ->
      List.iter
        (fun (name, priority) ->
          ignore
            (Host.add_hook host point ~priority ~name (fun frame ->
                 if Option.is_none !sent then sent := Some frame;
                 order := (Host.name host ^ "." ^ name) :: !order;
                 Hook.Accept frame)))
        [ ("p50", 50); ("x", 100); ("y", 100); ("p200", 200) ])
    [ (a, Hook.Egress); (b, Hook.Ingress) ];
  Host.udp_bind b ~port:9 (fun ~src:_ ~src_port:_ _ ->
      order := "socket" :: !order);
  let walk f =
    order := [];
    f ();
    Engine.run engine;
    List.rev !order
  in
  let chain = Alcotest.(list string) in
  check chain "send"
    [ "a.p50"; "a.x"; "a.y"; "a.p200"; "b.p200"; "b.y"; "b.x"; "b.p50";
      "socket" ]
    (walk (fun () ->
         Host.udp_send a ~src_port:1 ~dst:(ip 2) ~dst_port:9 (Bytes.create 1)));
  let frame = Option.get !sent in
  check chain "reinject a's egress from 100"
    [ "a.p200"; "b.p200"; "b.y"; "b.x"; "b.p50"; "socket" ]
    (walk (fun () -> Host.reinject a Hook.Egress ~from_priority:100 frame));
  check chain "reinject b's ingress from 100" [ "b.p50"; "socket" ]
    (walk (fun () -> Host.reinject b Hook.Ingress ~from_priority:100 frame))

let test_remove_hook () =
  let engine, a, b = pair () in
  let id = Host.add_hook a Hook.Egress ~priority:100 ~name:"drop" (fun _ -> Hook.Drop) in
  let got = ref 0 in
  Host.udp_bind b ~port:9 (fun ~src:_ ~src_port:_ _ -> incr got);
  Host.udp_send a ~src_port:1 ~dst:(ip 2) ~dst_port:9 (Bytes.create 1);
  Engine.run engine;
  check Alcotest.int "dropped while installed" 0 !got;
  Host.remove_hook a id;
  Host.udp_send a ~src_port:1 ~dst:(ip 2) ~dst_port:9 (Bytes.create 1);
  Engine.run engine;
  check Alcotest.int "delivered after removal" 1 !got

(* --- timers --- *)

let test_timer_jiffy_quantization () =
  let engine, a, _ = pair () in
  let fired_at = ref (-1) in
  ignore
    (Host.set_timer a ~delay:(Simtime.ms 13) (fun () ->
         fired_at := Engine.now engine));
  Engine.run engine;
  check Alcotest.int "rounded up to jiffy grid" (Simtime.ms 20) !fired_at

let test_timer_fine () =
  let engine, a, _ = pair () in
  let fired_at = ref (-1) in
  ignore
    (Host.set_timer a ~granularity:`Fine ~delay:(Simtime.ms 13) (fun () ->
         fired_at := Engine.now engine));
  Engine.run engine;
  check Alcotest.int "exact" (Simtime.ms 13) !fired_at

let test_timer_cancel () =
  let engine, a, _ = pair () in
  let fired = ref false in
  let timer = Host.set_timer a ~delay:(Simtime.ms 10) (fun () -> fired := true) in
  Host.cancel_timer a timer;
  Engine.run engine;
  check Alcotest.bool "cancelled" false !fired

(* --- failure --- *)

let test_fail_silences_node () =
  let engine, a, b = pair () in
  let got = ref 0 in
  Host.udp_bind b ~port:9 (fun ~src:_ ~src_port:_ _ -> incr got);
  Host.fail a;
  Host.udp_send a ~src_port:1 ~dst:(ip 2) ~dst_port:9 (Bytes.create 1);
  Engine.run engine;
  check Alcotest.int "failed node sends nothing" 0 !got;
  (* and receives nothing *)
  let got_a = ref 0 in
  Host.udp_bind a ~port:9 (fun ~src:_ ~src_port:_ _ -> incr got_a);
  Host.fail a;
  Host.udp_send b ~src_port:1 ~dst:(ip 1) ~dst_port:9 (Bytes.create 1);
  Engine.run engine;
  check Alcotest.int "failed node hears nothing" 0 !got_a;
  (* revive restores *)
  Host.revive a;
  Host.udp_send b ~src_port:1 ~dst:(ip 1) ~dst_port:9 (Bytes.create 1);
  Engine.run engine;
  check Alcotest.int "revived node hears" 1 !got_a

let test_fail_inhibits_timers () =
  let engine, a, _ = pair () in
  let fired = ref false in
  ignore (Host.set_timer a ~delay:(Simtime.ms 10) (fun () -> fired := true));
  Host.fail a;
  Engine.run engine;
  check Alcotest.bool "timer inhibited on failed node" false !fired

let test_tap_sees_both_directions () =
  let engine, a, b = pair () in
  let taps = ref [] in
  Host.set_tap a (fun ~dir _ -> taps := dir :: !taps);
  Host.udp_bind b ~port:9 (fun ~src ~src_port payload ->
      Host.udp_send b ~src_port:9 ~dst:src ~dst_port:src_port payload);
  Host.udp_bind a ~port:1 (fun ~src:_ ~src_port:_ _ -> ());
  Host.udp_send a ~src_port:1 ~dst:(ip 2) ~dst_port:9 (Bytes.create 1);
  Engine.run engine;
  check (Alcotest.list Alcotest.bool) "out then in" [ true; false ]
    (List.rev_map (fun d -> d = `Out) !taps)

let suite =
  [
    ( "stack.udp",
      [
        Alcotest.test_case "delivery" `Quick test_udp_delivery;
        Alcotest.test_case "echo roundtrip" `Quick test_udp_echo_roundtrip;
        Alcotest.test_case "bind conflict" `Quick test_udp_bind_conflict;
        Alcotest.test_case "NIC MAC filter" `Quick test_nic_mac_filter;
        Alcotest.test_case "in-place receive drops rejected datagrams" `Quick
          test_receive_drops_rejected;
        Alcotest.test_case "flipped TCP segment dropped without reply" `Quick
          test_tcp_flipped_segment_dropped;
        Alcotest.test_case "one datagram's allocation" `Quick
          test_datagram_allocation;
        Alcotest.test_case "one TCP segment's allocation" `Quick
          test_segment_allocation;
      ] );
    ( "stack.hooks",
      [
        Alcotest.test_case "egress order + drop" `Quick test_hook_egress_order_and_drop;
        Alcotest.test_case "ingress order" `Quick test_hook_ingress_order;
        Alcotest.test_case "transforming hook" `Quick test_hook_transform;
        Alcotest.test_case "steal and reinject" `Quick test_hook_steal_reinject;
        Alcotest.test_case "remove hook" `Quick test_remove_hook;
        Alcotest.test_case "priority ties and the reinject boundary" `Quick
          test_hook_ties_and_reinject_boundary;
      ] );
    ( "stack.timers",
      [
        Alcotest.test_case "jiffy quantization" `Quick test_timer_jiffy_quantization;
        Alcotest.test_case "fine granularity" `Quick test_timer_fine;
        Alcotest.test_case "cancel" `Quick test_timer_cancel;
      ] );
    ( "stack.failure",
      [
        Alcotest.test_case "fail silences node" `Quick test_fail_silences_node;
        Alcotest.test_case "fail inhibits timers" `Quick test_fail_inhibits_timers;
        Alcotest.test_case "tap" `Quick test_tap_sees_both_directions;
      ] );
  ]
