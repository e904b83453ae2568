module Ev = Vw_obs.Event

type header = { scenario : string; recorded : int; dropped : int }

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let field name conv j =
  match Option.bind (Json.mem name j) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing or ill-typed field %S" name)

let int_field name = field name Json.to_int
let str_field name = field name Json.to_string
let bool_field name = field name Json.to_bool

let parse_point = function
  | "ingress" -> Ok Ev.Ingress
  | "egress" -> Ok Ev.Egress
  | s -> Error (Printf.sprintf "unknown point %S" s)

let parse_fault = function
  | "drop" -> Ok Ev.Drop
  | "delay" -> Ok Ev.Delay
  | "reorder" -> Ok Ev.Reorder
  | "dup" -> Ok Ev.Dup
  | "modify" -> Ok Ev.Modify
  | s -> Error (Printf.sprintf "unknown fault %S" s)

let parse_ctl j =
  let* name = str_field "ctl" j in
  match name with
  | "init" -> Ok Ev.C_init
  | "start" -> Ok Ev.C_start
  | "counter_update" ->
      let* cid = int_field "cid" j in
      let* value = int_field "value" j in
      Ok (Ev.C_counter_update { cid; value })
  | "term_status" ->
      let* tid = int_field "tid" j in
      let* status = bool_field "status" j in
      Ok (Ev.C_term_status { tid; status })
  | "var_bind" ->
      let* vid = int_field "vid" j in
      Ok (Ev.C_var_bind { vid })
  | "report_stop" ->
      let* nid = int_field "report_nid" j in
      Ok (Ev.C_report_stop { nid })
  | "report_error" ->
      let* nid = int_field "report_nid" j in
      let* rule = int_field "rule" j in
      Ok (Ev.C_report_error { nid; rule })
  | s -> Error (Printf.sprintf "unknown ctl %S" s)

let parse_body j =
  let* kind = str_field "kind" j in
  match kind with
  | "packet_classified" ->
      let* point = Result.bind (str_field "point" j) parse_point in
      let* fid = int_field "fid" j in
      Ok (Ev.Packet_classified { point; fid })
  | "counter_changed" ->
      let* cid = int_field "cid" j in
      let* value = int_field "value" j in
      let* delta = int_field "delta" j in
      Ok (Ev.Counter_changed { cid; value; delta })
  | "term_flipped" ->
      let* tid = int_field "tid" j in
      let* status = bool_field "status" j in
      Ok (Ev.Term_flipped { tid; status })
  | "condition_rose" ->
      let* did = int_field "did" j in
      Ok (Ev.Condition_rose { did })
  | "action_fired" ->
      let* did = int_field "did" j in
      let* aid = int_field "aid" j in
      Ok (Ev.Action_fired { did; aid })
  | "fault_applied" ->
      let* did = int_field "did" j in
      let* aid = int_field "aid" j in
      let* fault = Result.bind (str_field "fault" j) parse_fault in
      Ok (Ev.Fault_applied { did; aid; fault })
  | "control_sent" ->
      let* dst_nid = int_field "dst_nid" j in
      let* ctl = parse_ctl j in
      Ok (Ev.Control_sent { dst_nid; ctl })
  | "control_received" ->
      let* ctl = parse_ctl j in
      Ok (Ev.Control_received { ctl })
  | "report_raised" ->
      let* nid = int_field "report_nid" j in
      let rule = Option.bind (Json.mem "rule" j) Json.to_int in
      Ok (Ev.Report_raised { nid; rule })
  | "expect_checked" ->
      let* xid = int_field "xid" j in
      let* ok = bool_field "ok" j in
      Ok (Ev.Expect_checked { xid; ok })
  | s -> Error (Printf.sprintf "unknown kind %S" s)

let parse_event j =
  let* seq = int_field "seq" j in
  let* time = int_field "time_ns" j in
  let* node = str_field "node" j in
  let* nid = int_field "nid" j in
  let* cause = int_field "cause" j in
  let* body = parse_body j in
  Ok { Ev.seq; time = Vw_sim.Simtime.ns time; node; nid; cause; body }

let parse_header j =
  let* schema = str_field "schema" j in
  if schema <> "vw-events/1" then
    Error (Printf.sprintf "unsupported schema %S (want vw-events/1)" schema)
  else
    let scenario =
      Option.value ~default:""
        (Option.bind (Json.mem "scenario" j) Json.to_string)
    in
    let recorded =
      Option.value ~default:0 (Option.bind (Json.mem "recorded" j) Json.to_int)
    in
    let dropped =
      Option.value ~default:0 (Option.bind (Json.mem "dropped" j) Json.to_int)
    in
    Ok { scenario; recorded; dropped }

let of_jsonl src =
  let lines = String.split_on_char '\n' src in
  let rec go lineno header acc = function
    | [] ->
        Ok
          ( header,
            List.sort (fun (a : Ev.t) b -> compare a.seq b.seq) (List.rev acc)
          )
    | line :: rest -> (
        if String.trim line = "" then go (lineno + 1) header acc rest
        else
          match Json.parse line with
          | Error e -> Error (Printf.sprintf "line %d: %s" lineno e)
          | Ok j ->
              if Json.mem "schema" j <> None then
                match parse_header j with
                | Error e -> Error (Printf.sprintf "line %d: %s" lineno e)
                | Ok h -> go (lineno + 1) (Some h) acc rest
              else (
                match parse_event j with
                | Error e -> Error (Printf.sprintf "line %d: %s" lineno e)
                | Ok e -> go (lineno + 1) header (e :: acc) rest))
  in
  go 1 None [] lines

(* Format sniffing: a vw-events/2 file starts with the VWEV2 magic, which
   no JSONL stream can (its first byte would have to open a JSON value).
   Note a JSONL header *claiming* "vw-events/2" stays an error — binary
   logs are never JSONL. *)
let of_string src =
  if Vw_obs.Binlog.is_binary src then
    match Vw_obs.Binlog.of_string src with
    | Ok ({ scenario; recorded; dropped }, events) ->
        Ok (Some { scenario; recorded; dropped }, events)
    | Error _ as e -> e
  else of_jsonl src

(* read to end of file, not to [in_channel_length]: a pipe cannot seek *)
let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | src -> of_string src
  | exception Sys_error e -> Error e
