(* Tests for the packet codecs. The crucial invariant is the frame layout:
   the paper's FSL filter offsets (ethertype@12, TCP ports@34/36, seq@38,
   ack@42, flags@47) must hold for our serialized frames. *)

open Vw_net
module Hex = Vw_util.Hexutil

let check = Alcotest.check
let qtest = Test_seed.qtest

let mac1 = Mac.of_string "00:46:61:af:fe:23"
let mac2 = Mac.of_string "00:23:31:df:af:12"
let ip1 = Ip_addr.of_string "192.168.1.1"
let ip2 = Ip_addr.of_string "192.168.1.2"

(* --- Mac / Ip_addr --- *)

let test_mac_roundtrip () =
  check Alcotest.string "to_string" "00:46:61:af:fe:23" (Mac.to_string mac1);
  check Alcotest.bool "equal" true (Mac.equal mac1 (Mac.of_string "00:46:61:AF:FE:23"));
  check Alcotest.bool "broadcast" true (Mac.is_broadcast Mac.broadcast);
  check Alcotest.bool "not broadcast" false (Mac.is_broadcast mac1)

let test_mac_of_int () =
  let m = Mac.of_int 0x123456 in
  check Alcotest.string "locally administered" "02:00:00:12:34:56" (Mac.to_string m)

let test_mac_bad () =
  Alcotest.check_raises "short"
    (Invalid_argument "Mac.of_string: \"00:11:22\" is not xx:xx:xx:xx:xx:xx")
    (fun () -> ignore (Mac.of_string "00:11:22"))

let test_ip_roundtrip () =
  check Alcotest.string "to_string" "192.168.1.1" (Ip_addr.to_string ip1);
  check Alcotest.bool "equal" true
    (Ip_addr.equal ip1 (Ip_addr.of_string "192.168.1.1"));
  check Alcotest.string "of_host_index" "10.0.1.4"
    (Ip_addr.to_string (Ip_addr.of_host_index 260))

let test_ip_write_read () =
  let b = Bytes.create 8 in
  Ip_addr.write ip1 b ~pos:2;
  check Alcotest.bool "read back" true (Ip_addr.equal ip1 (Ip_addr.of_bytes b ~pos:2))

let test_ip_high_octet () =
  let ip = Ip_addr.of_string "255.255.255.255" in
  check Alcotest.string "all ones survives int32" "255.255.255.255"
    (Ip_addr.to_string ip)

(* Addresses are immediate ints; these pin the representation against
   the wire form it replaced. *)
let gen_wire n =
  QCheck.make ~print:(fun s -> Hex.to_hex (Bytes.of_string s))
    QCheck.Gen.(string_size ~gen:(map Char.chr (int_range 0 255)) (return n))

let prop_mac_roundtrip =
  QCheck.Test.make ~name:"mac write/of_bytes and to_string/of_string roundtrip"
    ~count:500 (gen_wire 6) (fun s ->
      let b = Bytes.of_string ("xx" ^ s) in
      let m = Mac.of_bytes b ~pos:2 in
      let b' = Bytes.make 9 'y' in
      Mac.write m b' ~pos:1;
      Bytes.sub_string b' 1 6 = s
      && Mac.equal (Mac.of_string (Mac.to_string m)) m
      && Mac.to_string m
         = String.concat ":"
             (List.init 6 (fun i -> Printf.sprintf "%02x" (Char.code s.[i])))
      && List.for_all (fun i -> Mac.get_byte m i = Char.code s.[i]) [ 0; 1; 2; 3; 4; 5 ])

let prop_mac_compare_is_byte_order =
  QCheck.Test.make ~name:"mac compare has the sign of Bytes.compare" ~count:500
    (QCheck.pair (gen_wire 6) (gen_wire 6)) (fun (a, b) ->
      (* half the pairs share a prefix, so later bytes decide *)
      let b = if Char.code b.[0] land 1 = 0 then String.sub a 0 3 ^ String.sub b 3 3 else b in
      let mac s = Mac.of_bytes (Bytes.of_string s) ~pos:0 in
      let sign x = Int.compare x 0 in
      let expected = sign (Bytes.compare (Bytes.of_string a) (Bytes.of_string b)) in
      sign (Mac.compare (mac a) (mac b)) = expected
      && sign (compare (mac a) (mac b)) = expected)

let prop_mac_get_byte_range =
  QCheck.Test.make ~name:"mac get_byte outside 0-5 raises" ~count:300
    QCheck.(int_range (-1000) 1000) (fun i ->
      let m = Mac.of_string "00:46:61:af:fe:23" in
      match Mac.get_byte m i with
      | v -> i >= 0 && i <= 5 && v = Char.code "\x00\x46\x61\xaf\xfe\x23".[i]
      | exception Invalid_argument _ -> i < 0 || i > 5)

let prop_ip_roundtrip =
  QCheck.Test.make ~name:"ip write/of_bytes and to_string/of_string roundtrip"
    ~count:500 (gen_wire 4) (fun s ->
      let ip = Ip_addr.of_bytes (Bytes.of_string s) ~pos:0 in
      let b = Bytes.make 4 'y' in
      Ip_addr.write ip b ~pos:0;
      Bytes.to_string b = s
      && Ip_addr.equal (Ip_addr.of_string (Ip_addr.to_string ip)) ip
      && (ip :> int) >= 0
      && (ip :> int) = Int32.to_int (Bytes.get_int32_be b 0) land 0xffff_ffff)

let test_ip_above_sign_bit () =
  List.iter
    (fun (text, v) ->
      let ip = Ip_addr.of_string text in
      check Alcotest.int (text ^ " as unsigned int") v (ip :> int);
      let b = Bytes.create 4 in
      Ip_addr.write ip b ~pos:0;
      check Alcotest.bool (text ^ " reads back") true
        (Ip_addr.equal ip (Ip_addr.of_bytes b ~pos:0));
      check Alcotest.string (text ^ " prints back") text (Ip_addr.to_string ip))
    [ ("128.0.0.1", 0x8000_0001); ("255.255.255.255", 0xffff_ffff) ];
  check Alcotest.bool "128.0.0.1 above 127.255.255.255" true
    ((Ip_addr.of_string "128.0.0.1" :> int)
    > (Ip_addr.of_string "127.255.255.255" :> int))

(* --- Eth --- *)

let test_eth_roundtrip () =
  let payload = Bytes.of_string "hello" in
  let f = Eth.make ~dst:mac2 ~src:mac1 ~ethertype:Eth.ethertype_ipv4 payload in
  let b = Eth.to_bytes f in
  check Alcotest.int "size" (14 + 5) (Bytes.length b);
  let f' = Eth.of_bytes b in
  check Alcotest.bool "dst" true (Mac.equal f.dst f'.dst);
  check Alcotest.bool "src" true (Mac.equal f.src f'.src);
  check Alcotest.int "ethertype" f.ethertype f'.ethertype;
  check Alcotest.bytes "payload" f.payload f'.payload

let test_eth_layout () =
  let f = Eth.make ~dst:mac2 ~src:mac1 ~ethertype:0x9900 (Hex.of_hex "0001") in
  let b = Eth.to_bytes f in
  (* the Figure 6 filter: (12 2 0x9900), (14 2 0x0001) *)
  check Alcotest.int "ethertype at offset 12" 0x9900 (Hex.to_int_be b ~pos:12 ~len:2);
  check Alcotest.int "opcode at offset 14" 0x0001 (Hex.to_int_be b ~pos:14 ~len:2)

let test_eth_runt () =
  Alcotest.check_raises "runt" (Invalid_argument "Eth.of_bytes: frame shorter than header")
    (fun () -> ignore (Eth.of_bytes (Bytes.create 5)))

(* --- Ipv4 --- *)

let test_ipv4_roundtrip () =
  let p =
    Ipv4.make ~ttl:17 ~ident:42 ~protocol:Ipv4.protocol_udp ~src:ip1 ~dst:ip2
      (Bytes.of_string "payload!")
  in
  match Ipv4.of_bytes (Ipv4.to_bytes p) with
  | Error e -> Alcotest.fail e
  | Ok p' ->
      check Alcotest.int "ttl" 17 p'.ttl;
      check Alcotest.int "ident" 42 p'.ident;
      check Alcotest.int "proto" Ipv4.protocol_udp p'.protocol;
      check Alcotest.bool "src" true (Ip_addr.equal ip1 p'.src);
      check Alcotest.bool "dst" true (Ip_addr.equal ip2 p'.dst);
      check Alcotest.bytes "payload" p.payload p'.payload

let test_ipv4_checksum_corruption () =
  let p = Ipv4.make ~protocol:6 ~src:ip1 ~dst:ip2 (Bytes.create 4) in
  let b = Ipv4.to_bytes p in
  Bytes.set b 8 '\x01' (* clobber TTL *);
  match Ipv4.of_bytes b with
  | Error e ->
      check Alcotest.bool "mentions checksum" true
        (String.length e > 0
        && String.sub e 0 4 = "ipv4")
  | Ok _ -> Alcotest.fail "corrupted header accepted"

let test_ipv4_truncated () =
  match Ipv4.of_bytes (Bytes.create 10) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated header accepted"

(* --- Udp --- *)

let test_udp_roundtrip () =
  let d = Udp.make ~src_port:5000 ~dst_port:5001 (Bytes.of_string "ping") in
  match Udp.of_bytes ~src:ip1 ~dst:ip2 (Udp.to_bytes ~src:ip1 ~dst:ip2 d) with
  | Error e -> Alcotest.fail e
  | Ok d' ->
      check Alcotest.int "sport" 5000 d'.src_port;
      check Alcotest.int "dport" 5001 d'.dst_port;
      check Alcotest.bytes "payload" d.payload d'.payload

let test_udp_wrong_pseudo_header () =
  (* Same bytes but different claimed endpoints must fail the checksum. *)
  let d = Udp.make ~src_port:1 ~dst_port:2 (Bytes.of_string "x") in
  let b = Udp.to_bytes ~src:ip1 ~dst:ip2 d in
  match Udp.of_bytes ~src:ip1 ~dst:ip1 b with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "wrong pseudo-header accepted"

let test_udp_corrupt_payload () =
  let d = Udp.make ~src_port:1 ~dst_port:2 (Bytes.of_string "abcdef") in
  let b = Udp.to_bytes ~src:ip1 ~dst:ip2 d in
  Bytes.set b 10 'X';
  match Udp.of_bytes ~src:ip1 ~dst:ip2 b with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "corrupt payload accepted"

(* --- Tcp_segment --- *)

let all_flags =
  {
    Tcp_segment.fin = true;
    syn = false;
    rst = false;
    psh = true;
    ack = true;
    urg = false;
  }

let test_tcp_roundtrip () =
  let seg =
    Tcp_segment.make ~seq:123456 ~ack_seq:654321 ~flags:all_flags ~window:8192
      ~src_port:24576 ~dst_port:16384 (Bytes.of_string "data")
  in
  match
    Tcp_segment.of_bytes ~src:ip1 ~dst:ip2
      (Tcp_segment.to_bytes ~src:ip1 ~dst:ip2 seg)
  with
  | Error e -> Alcotest.fail e
  | Ok seg' ->
      check Alcotest.int "seq" 123456 seg'.seq;
      check Alcotest.int "ack" 654321 seg'.ack_seq;
      check Alcotest.int "window" 8192 seg'.window;
      check Alcotest.bool "flags" true (seg'.flags = all_flags);
      check Alcotest.bytes "payload" seg.payload seg'.payload

let test_tcp_paper_offsets () =
  (* Build the full frame a VirtualWire node would classify and verify the
     Figure 2 filter offsets. Ports: 0x6000 = 24576, 0x4000 = 16384. *)
  let seg =
    Tcp_segment.make ~seq:0xAABBCCDD ~ack_seq:0x11223344
      ~flags:{ Tcp_segment.no_flags with syn = true; ack = true }
      ~src_port:0x6000 ~dst_port:0x4000 (Bytes.create 0)
  in
  let ip_packet =
    Ipv4.make ~protocol:Ipv4.protocol_tcp ~src:ip1 ~dst:ip2
      (Tcp_segment.to_bytes ~src:ip1 ~dst:ip2 seg)
  in
  let frame =
    Eth.make ~dst:mac2 ~src:mac1 ~ethertype:Eth.ethertype_ipv4
      (Ipv4.to_bytes ip_packet)
  in
  let b = Eth.to_bytes frame in
  check Alcotest.int "src port at 34" 0x6000 (Hex.to_int_be b ~pos:34 ~len:2);
  check Alcotest.int "dst port at 36" 0x4000 (Hex.to_int_be b ~pos:36 ~len:2);
  check Alcotest.int "seq at 38" 0xAABBCCDD (Hex.to_int_be b ~pos:38 ~len:4);
  check Alcotest.int "ack at 42" 0x11223344 (Hex.to_int_be b ~pos:42 ~len:4);
  check Alcotest.int "SYNACK flags at 47" 0x12
    (Hex.to_int_be b ~pos:47 ~len:1)

let test_tcp_corruption_detected () =
  let seg = Tcp_segment.make ~src_port:1 ~dst_port:2 (Bytes.of_string "abc") in
  let b = Tcp_segment.to_bytes ~src:ip1 ~dst:ip2 seg in
  Bytes.set b 5 '\x99';
  match Tcp_segment.of_bytes ~src:ip1 ~dst:ip2 b with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "corrupt segment accepted"

let gen_payload = QCheck.(string_of_size (Gen.int_range 0 100))

let prop_udp_roundtrip =
  QCheck.Test.make ~name:"udp encode/decode roundtrip" ~count:300
    QCheck.(triple (int_bound 65535) (int_bound 65535) gen_payload)
    (fun (sport, dport, payload) ->
      let d =
        Udp.make ~src_port:sport ~dst_port:dport (Bytes.of_string payload)
      in
      match Udp.of_bytes ~src:ip1 ~dst:ip2 (Udp.to_bytes ~src:ip1 ~dst:ip2 d) with
      | Ok d' ->
          d'.src_port = sport && d'.dst_port = dport
          && Bytes.to_string d'.payload = payload
      | Error _ -> false)

let prop_tcp_roundtrip =
  QCheck.Test.make ~name:"tcp encode/decode roundtrip" ~count:300
    QCheck.(
      pair
        (pair (int_bound 0xFFFFFFFF) (int_bound 0xFFFFFFFF))
        (pair (int_bound 255) gen_payload))
    (fun ((seq, ack_seq), (flag_bits, payload)) ->
      let flags =
        {
          Tcp_segment.fin = flag_bits land 1 <> 0;
          syn = flag_bits land 2 <> 0;
          rst = flag_bits land 4 <> 0;
          psh = flag_bits land 8 <> 0;
          ack = flag_bits land 16 <> 0;
          urg = flag_bits land 32 <> 0;
        }
      in
      let seg =
        Tcp_segment.make ~seq ~ack_seq ~flags ~src_port:80 ~dst_port:8080
          (Bytes.of_string payload)
      in
      match
        Tcp_segment.of_bytes ~src:ip1 ~dst:ip2
          (Tcp_segment.to_bytes ~src:ip1 ~dst:ip2 seg)
      with
      | Ok seg' ->
          seg'.seq = seq && seg'.ack_seq = ack_seq && seg'.flags = flags
          && Bytes.to_string seg'.payload = payload
      | Error _ -> false)

(* --- Frame_view --- *)

let test_frame_view_tcp () =
  let seg =
    Tcp_segment.make ~flags:{ Tcp_segment.no_flags with syn = true }
      ~src_port:24576 ~dst_port:16384 (Bytes.create 0)
  in
  let ip_packet =
    Ipv4.make ~protocol:Ipv4.protocol_tcp ~src:ip1 ~dst:ip2
      (Tcp_segment.to_bytes ~src:ip1 ~dst:ip2 seg)
  in
  let frame =
    Eth.make ~dst:mac2 ~src:mac1 ~ethertype:Eth.ethertype_ipv4
      (Ipv4.to_bytes ip_packet)
  in
  let view = Frame_view.of_frame frame in
  match view.content with
  | Frame_view.Ip (_, Frame_view.Tcp_view seg') ->
      check Alcotest.bool "syn" true seg'.flags.syn
  | _ -> Alcotest.fail "expected TCP view"

let test_frame_view_bad_ip () =
  let frame =
    Eth.make ~dst:mac2 ~src:mac1 ~ethertype:Eth.ethertype_ipv4
      (Bytes.of_string "garbage")
  in
  match (Frame_view.of_frame frame).content with
  | Frame_view.Bad_ip _ -> ()
  | _ -> Alcotest.fail "expected Bad_ip"

let test_frame_view_rether () =
  let frame =
    Eth.make ~dst:mac2 ~src:mac1 ~ethertype:Eth.ethertype_rether
      (Hex.of_hex "000100000007")
  in
  match (Frame_view.of_frame frame).content with
  | Frame_view.Rether (op, _) -> check Alcotest.int "opcode" 1 op
  | _ -> Alcotest.fail "expected Rether view"

let suite =
  [
    ( "net.addr",
      [
        Alcotest.test_case "mac roundtrip" `Quick test_mac_roundtrip;
        Alcotest.test_case "mac of_int" `Quick test_mac_of_int;
        Alcotest.test_case "mac rejects junk" `Quick test_mac_bad;
        Alcotest.test_case "ip roundtrip" `Quick test_ip_roundtrip;
        Alcotest.test_case "ip write/read" `Quick test_ip_write_read;
        Alcotest.test_case "ip 255.255.255.255" `Quick test_ip_high_octet;
        qtest prop_mac_roundtrip;
        qtest prop_mac_compare_is_byte_order;
        qtest prop_mac_get_byte_range;
        qtest prop_ip_roundtrip;
        Alcotest.test_case "ip at and above 128.0.0.0" `Quick
          test_ip_above_sign_bit;
      ] );
    ( "net.eth",
      [
        Alcotest.test_case "roundtrip" `Quick test_eth_roundtrip;
        Alcotest.test_case "paper layout" `Quick test_eth_layout;
        Alcotest.test_case "runt frame" `Quick test_eth_runt;
      ] );
    ( "net.ipv4",
      [
        Alcotest.test_case "roundtrip" `Quick test_ipv4_roundtrip;
        Alcotest.test_case "checksum detects corruption" `Quick
          test_ipv4_checksum_corruption;
        Alcotest.test_case "truncated" `Quick test_ipv4_truncated;
      ] );
    ( "net.udp",
      [
        Alcotest.test_case "roundtrip" `Quick test_udp_roundtrip;
        Alcotest.test_case "pseudo-header binds endpoints" `Quick
          test_udp_wrong_pseudo_header;
        Alcotest.test_case "corrupt payload detected" `Quick test_udp_corrupt_payload;
        qtest prop_udp_roundtrip;
      ] );
    ( "net.tcp_segment",
      [
        Alcotest.test_case "roundtrip" `Quick test_tcp_roundtrip;
        Alcotest.test_case "paper filter offsets" `Quick test_tcp_paper_offsets;
        Alcotest.test_case "corruption detected" `Quick test_tcp_corruption_detected;
        qtest prop_tcp_roundtrip;
      ] );
    ( "net.frame_view",
      [
        Alcotest.test_case "tcp view" `Quick test_frame_view_tcp;
        Alcotest.test_case "bad ip degrades" `Quick test_frame_view_bad_ip;
        Alcotest.test_case "rether view" `Quick test_frame_view_rether;
      ] );
  ]
