(* Tests for the HTTP/1.0 application layer over vw_tcp. *)

open Vw_sim
module Host = Vw_stack.Host
module Tcp = Vw_tcp.Tcp
module Http = Vw_apps.Http

let check = Alcotest.check

let mac i = Vw_net.Mac.of_int i
let ip i = Vw_net.Ip_addr.of_host_index i

let world () =
  let engine = Engine.create () in
  let link = Vw_link.Link.create engine Vw_link.Link.default_config in
  let a = Host.create engine ~name:"client" ~mac:(mac 1) ~ip:(ip 1) in
  let b = Host.create engine ~name:"server" ~mac:(mac 2) ~ip:(ip 2) in
  Host.attach a (Vw_link.Netif.of_link_endpoint (Vw_link.Link.endpoint_a link));
  Host.attach b (Vw_link.Netif.of_link_endpoint (Vw_link.Link.endpoint_b link));
  Host.add_neighbor a (ip 2) (mac 2);
  Host.add_neighbor b (ip 1) (mac 1);
  (engine, Tcp.attach a, Tcp.attach b)

(* --- message codecs --- *)

let test_request_roundtrip () =
  let r =
    {
      Http.meth = "GET";
      path = "/index.html";
      req_headers = [ ("Host", "example") ];
      req_body = "";
    }
  in
  match Http.parse_request (Http.encode_request r) with
  | Error e -> Alcotest.fail e
  | Ok r' ->
      check Alcotest.string "method" "GET" r'.Http.meth;
      check Alcotest.string "path" "/index.html" r'.Http.path;
      check Alcotest.string "host header" "example"
        (List.assoc "Host" r'.Http.req_headers)

let test_response_roundtrip () =
  let r = Http.response ~status:404 ~reason:"Not Found" "nope" in
  match Http.parse_response (Http.encode_response r) with
  | Error e -> Alcotest.fail e
  | Ok r' ->
      check Alcotest.int "status" 404 r'.Http.status;
      check Alcotest.string "reason" "Not Found" r'.Http.reason;
      check Alcotest.string "body" "nope" r'.Http.resp_body

let test_parse_rejects_garbage () =
  (match Http.parse_request "not http at all" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage request accepted");
  match Http.parse_response "HTTP/1.0 abc\r\n\r\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage response accepted"

(* --- end to end --- *)

let test_get_roundtrip () =
  let engine, client, server = world () in
  let http_server =
    Http.Server.start server ~port:80 ~handler:(fun req ->
        Http.response (Printf.sprintf "you asked for %s" req.Http.path))
  in
  let result = ref None in
  Http.Client.get client ~dst:(ip 2) ~dst_port:80 ~path:"/hello" (fun r ->
      result := Some r);
  Engine.run engine ~until:(Simtime.sec 10.0);
  (match !result with
  | Some (Ok resp) ->
      check Alcotest.int "200" 200 resp.Http.status;
      check Alcotest.string "body" "you asked for /hello" resp.Http.resp_body
  | Some (Error e) -> Alcotest.failf "request failed: %s" e
  | None -> Alcotest.fail "no response");
  check Alcotest.int "served" 1 (Http.Server.requests_served http_server)

let test_large_body () =
  let engine, client, server = world () in
  let big = String.init 100_000 (fun i -> Char.chr (32 + (i mod 90))) in
  ignore (Http.Server.start server ~port:80 ~handler:(fun _ -> Http.response big));
  let result = ref None in
  Http.Client.get client
    ~timeout:(Simtime.sec 30.0)
    ~dst:(ip 2) ~dst_port:80 ~path:"/big"
    (fun r -> result := Some r);
  Engine.run engine ~until:(Simtime.sec 30.0);
  match !result with
  | Some (Ok resp) ->
      check Alcotest.int "full body length" (String.length big)
        (String.length resp.Http.resp_body);
      check Alcotest.bool "content intact" true
        (String.equal big resp.Http.resp_body)
  | Some (Error e) -> Alcotest.failf "request failed: %s" e
  | None -> Alcotest.fail "no response"

let test_concurrent_requests () =
  let engine, client, server = world () in
  ignore
    (Http.Server.start server ~port:80 ~handler:(fun req ->
         Http.response ("echo " ^ req.Http.path)));
  let results = ref [] in
  for i = 1 to 5 do
    Http.Client.get client ~dst:(ip 2) ~dst_port:80
      ~path:(Printf.sprintf "/req%d" i)
      (fun r -> results := (i, r) :: !results)
  done;
  Engine.run engine ~until:(Simtime.sec 10.0);
  check Alcotest.int "all five answered" 5 (List.length !results);
  List.iter
    (fun (i, r) ->
      match r with
      | Ok resp ->
          check Alcotest.string
            (Printf.sprintf "response %d routed correctly" i)
            (Printf.sprintf "echo /req%d" i)
            resp.Http.resp_body
      | Error e -> Alcotest.failf "request %d failed: %s" i e)
    !results

let test_timeout_on_dead_server () =
  let engine, client, _server = world () in
  (* no server listening: TCP RSTs, the client reports an error, promptly *)
  let result = ref None in
  Http.Client.get client ~timeout:(Simtime.ms 500) ~dst:(ip 2) ~dst_port:81
    ~path:"/" (fun r -> result := Some r);
  Engine.run engine ~until:(Simtime.sec 5.0);
  match !result with
  | Some (Error _) -> ()
  | Some (Ok _) -> Alcotest.fail "got a response from nothing"
  | None -> Alcotest.fail "callback never fired"

let test_timeout_on_silent_peer () =
  let engine, client, server = world () in
  (* a listener that accepts but never answers: the client must time out *)
  ignore (Tcp.listen server ~port:80 ~on_accept:(fun _ -> ()));
  let result = ref None in
  Http.Client.get client ~timeout:(Simtime.ms 300) ~dst:(ip 2) ~dst_port:80
    ~path:"/" (fun r -> result := Some r);
  Engine.run engine ~until:(Simtime.sec 5.0);
  match !result with
  | Some (Error "timeout") -> ()
  | Some (Error e) -> Alcotest.failf "expected timeout, got %s" e
  | Some (Ok _) -> Alcotest.fail "got a response from a mute server"
  | None -> Alcotest.fail "callback never fired"

let test_bad_request_gets_400 () =
  let engine, client_stack, server = world () in
  let http_server =
    Http.Server.start server ~port:80 ~handler:(fun _ -> Http.response "ok")
  in
  (* speak raw garbage at the server over TCP *)
  let conn =
    Tcp.connect client_stack ~src_port:9999 ~dst:(ip 2) ~dst_port:80
  in
  let got = Buffer.create 64 in
  Tcp.on_established conn (fun () ->
      Tcp.send conn (Bytes.of_string "BLARG\r\n\r\n"));
  Tcp.on_data conn (fun payload -> Buffer.add_bytes got payload);
  Engine.run engine ~until:(Simtime.sec 5.0);
  check Alcotest.int "rejected" 1 (Http.Server.bad_requests http_server);
  match Http.parse_response (Buffer.contents got) with
  | Ok resp -> check Alcotest.int "400" 400 resp.Http.status
  | Error e -> Alcotest.failf "no parseable 400: %s" e

let suite =
  [
    ( "http",
      [
        Alcotest.test_case "request roundtrip" `Quick test_request_roundtrip;
        Alcotest.test_case "response roundtrip" `Quick test_response_roundtrip;
        Alcotest.test_case "parser rejects garbage" `Quick test_parse_rejects_garbage;
        Alcotest.test_case "GET end to end" `Quick test_get_roundtrip;
        Alcotest.test_case "100KB body" `Quick test_large_body;
        Alcotest.test_case "concurrent requests" `Quick test_concurrent_requests;
        Alcotest.test_case "error on dead port" `Quick test_timeout_on_dead_server;
        Alcotest.test_case "timeout on silent peer" `Quick test_timeout_on_silent_peer;
        Alcotest.test_case "400 on garbage" `Quick test_bad_request_gets_400;
      ] );
  ]

(* --- ICMP / ping --- *)

module Icmp = Vw_net.Icmp

let test_icmp_codec () =
  let m = Icmp.Echo_request { id = 7; seq = 3; payload = Bytes.of_string "abc" } in
  (match Icmp.of_bytes (Icmp.to_bytes m) with
  | Ok (Icmp.Echo_request { id = 7; seq = 3; payload }) ->
      check Alcotest.string "payload" "abc" (Bytes.to_string payload)
  | Ok _ -> Alcotest.fail "wrong message"
  | Error e -> Alcotest.fail e);
  let b = Icmp.to_bytes m in
  Bytes.set b 5 '\xff';
  match Icmp.of_bytes b with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "corrupt icmp accepted"

(* the client sends four echo requests (id 7, seq 1..4) to the server;
   the (id, seq) of every echo reply it receives, in arrival order *)
let echo_replies ~server_failed =
  let engine, client_stack, server_stack = world () in
  let client = Tcp.host client_stack in
  if server_failed then Host.fail (Tcp.host server_stack);
  let replies = ref [] in
  Host.set_icmp_observer client
    (Some
       (fun ~src:_ message ->
         match message with
         | Icmp.Echo_reply { id; seq; _ } -> replies := (id, seq) :: !replies
         | _ -> ()));
  for seq = 1 to 4 do
    Host.send_icmp client ~dst:(ip 2)
      (Icmp.Echo_request { id = 7; seq; payload = Bytes.make 56 '\000' })
  done;
  Engine.run engine ~until:(Simtime.sec 1.0);
  List.rev !replies

let test_ping_round_trip () =
  check
    Alcotest.(list (pair int int))
    "one reply per request"
    [ (7, 1); (7, 2); (7, 3); (7, 4) ]
    (echo_replies ~server_failed:false)

let test_ping_dead_host_times_out () =
  check
    Alcotest.(list (pair int int))
    "a failed host answers none" []
    (echo_replies ~server_failed:true)

let test_udp_port_unreachable () =
  let engine, client_stack, _server = world () in
  let client = Tcp.host client_stack in
  let unreachable = ref 0 in
  Host.set_icmp_observer client
    (Some
       (fun ~src:_ message ->
         match message with
         | Icmp.Dest_unreachable { code; _ }
           when code = Icmp.code_port_unreachable ->
             incr unreachable
         | _ -> ()));
  Host.udp_send client ~src_port:1234 ~dst:(ip 2) ~dst_port:4242
    (Bytes.create 8);
  Engine.run engine ~until:(Simtime.sec 1.0);
  check Alcotest.int "port unreachable came back" 1 !unreachable

let icmp_suite =
  ( "icmp",
    [
      Alcotest.test_case "codec" `Quick test_icmp_codec;
      Alcotest.test_case "ping round trip" `Quick test_ping_round_trip;
      Alcotest.test_case "ping dead host" `Quick test_ping_dead_host_times_out;
      Alcotest.test_case "udp port unreachable" `Quick test_udp_port_unreachable;
    ] )

let suite = suite @ [ icmp_suite ]
