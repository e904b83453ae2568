module Tcp = Vw_tcp.Tcp

type request = {
  meth : string;
  path : string;
  req_headers : (string * string) list;
  req_body : string;
}

type response = {
  status : int;
  reason : string;
  resp_headers : (string * string) list;
  resp_body : string;
}

let response ?(status = 200) ?(reason = "OK") ?(headers = []) body =
  { status; reason; resp_headers = headers; resp_body = body }

let content_length headers =
  List.fold_left
    (fun acc (k, v) ->
      if String.lowercase_ascii k = "content-length" then int_of_string_opt v
      else acc)
    None headers

let encode_headers headers body =
  let headers =
    if content_length headers = None then
      headers @ [ ("Content-Length", string_of_int (String.length body)) ]
    else headers
  in
  String.concat ""
    (List.map (fun (k, v) -> Printf.sprintf "%s: %s\r\n" k v) headers)

let encode_request r =
  Printf.sprintf "%s %s HTTP/1.0\r\n%s\r\n%s" r.meth r.path
    (encode_headers r.req_headers r.req_body)
    r.req_body

let encode_response r =
  Printf.sprintf "HTTP/1.0 %d %s\r\n%s\r\n%s" r.status r.reason
    (encode_headers r.resp_headers r.resp_body)
    r.resp_body

(* --- parsing --- *)

let split_head_body text =
  let sep = "\r\n\r\n" in
  let n = String.length text and sn = String.length sep in
  let rec find i =
    if i + sn > n then None
    else if String.sub text i sn = sep then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> Error "missing header terminator"
  | Some i ->
      Ok (String.sub text 0 i, String.sub text (i + sn) (n - i - sn))

let parse_headers lines =
  List.filter_map
    (fun line ->
      match String.index_opt line ':' with
      | None -> None
      | Some i ->
          Some
            ( String.trim (String.sub line 0 i),
              String.trim (String.sub line (i + 1) (String.length line - i - 1))
            ))
    lines

let split_lines head =
  String.split_on_char '\n' head
  |> List.map (fun l ->
         if String.length l > 0 && l.[String.length l - 1] = '\r' then
           String.sub l 0 (String.length l - 1)
         else l)

let parse_request text =
  match split_head_body text with
  | Error e -> Error e
  | Ok (head, body) -> (
      match split_lines head with
      | [] -> Error "empty request"
      | request_line :: header_lines -> (
          match String.split_on_char ' ' request_line with
          | meth :: path :: _version ->
              let req_headers = parse_headers header_lines in
              let req_body =
                match content_length req_headers with
                | Some n when n <= String.length body -> String.sub body 0 n
                | _ -> body
              in
              Ok { meth; path; req_headers; req_body }
          | _ -> Error "malformed request line"))

let parse_response text =
  match split_head_body text with
  | Error e -> Error e
  | Ok (head, body) -> (
      match split_lines head with
      | [] -> Error "empty response"
      | status_line :: header_lines -> (
          match String.split_on_char ' ' status_line with
          | _version :: code :: reason_words -> (
              match int_of_string_opt code with
              | None -> Error "malformed status code"
              | Some status ->
                  let resp_headers = parse_headers header_lines in
                  let resp_body =
                    match content_length resp_headers with
                    | Some n when n <= String.length body -> String.sub body 0 n
                    | _ -> body
                  in
                  Ok
                    {
                      status;
                      reason = String.concat " " reason_words;
                      resp_headers;
                      resp_body;
                    })
          | _ -> Error "malformed status line"))

(* Has a complete message arrived? Head terminator plus, when present, the
   declared body length. *)
let message_complete buffer =
  match split_head_body buffer with
  | Error _ -> false
  | Ok (head, body) -> (
      match split_lines head with
      | _ :: header_lines -> (
          match content_length (parse_headers header_lines) with
          | Some n -> String.length body >= n
          | None -> true)
      | [] -> false)

(* --- server --- *)

module Server = struct
  type t = {
    listener : Tcp.listener;
    mutable served : int;
    mutable bad : int;
  }

  let start stack ~port ~handler =
    let t_ref = ref None in
    let listener =
      Tcp.listen stack ~port ~on_accept:(fun conn ->
          let buffer = Buffer.create 256 in
          Tcp.on_data conn (fun payload ->
              Buffer.add_bytes buffer payload;
              let text = Buffer.contents buffer in
              if message_complete text then begin
                let t = Option.get !t_ref in
                let resp =
                  match parse_request text with
                  | Ok req ->
                      t.served <- t.served + 1;
                      handler req
                  | Error reason ->
                      t.bad <- t.bad + 1;
                      response ~status:400 ~reason:"Bad Request"
                        ("bad request: " ^ reason)
                in
                Tcp.send conn (Bytes.of_string (encode_response resp));
                Tcp.close conn
              end))
    in
    let t = { listener; served = 0; bad = 0 } in
    t_ref := Some t;
    t

  let requests_served t = t.served
  let bad_requests t = t.bad
end

(* --- client --- *)

module Client = struct
  type result_t = (response, string) Stdlib.result

  let next_port = ref 40_000

  let get ?src_port ?(timeout = Vw_sim.Simtime.sec 5.0) stack ~dst ~dst_port
      ~path callback =
    let src_port =
      match src_port with
      | Some p -> p
      | None ->
          incr next_port;
          if !next_port > 60_000 then next_port := 40_001;
          !next_port
    in
    let conn = Tcp.connect stack ~src_port ~dst ~dst_port in
    let buffer = Buffer.create 256 in
    let finished = ref false in
    let finish result =
      if not !finished then begin
        finished := true;
        callback result
      end
    in
    let host = Tcp.host stack in
    ignore
      (Vw_stack.Host.set_timer host ~delay:timeout (fun () ->
           if not !finished then begin
             (* report before aborting: the abort fires on_closed, which
                must find the request already finished *)
             finish (Error "timeout");
             Tcp.abort conn
           end));
    Tcp.on_established conn (fun () ->
        Tcp.send conn
          (Bytes.of_string
             (encode_request
                { meth = "GET"; path; req_headers = []; req_body = "" })));
    Tcp.on_data conn (fun payload ->
        Buffer.add_bytes buffer payload;
        if message_complete (Buffer.contents buffer) then begin
          finish (parse_response (Buffer.contents buffer));
          Tcp.close conn
        end);
    Tcp.on_closed conn (fun () ->
        if not !finished then
          (* connection died (RST, give-up) or closed before a complete
             response arrived *)
          match parse_response (Buffer.contents buffer) with
          | Ok resp -> finish (Ok resp)
          | Error _ -> finish (Error "connection closed without a response"))
end
