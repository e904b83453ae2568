type point = Ingress | Egress
type fault_kind = Drop | Delay | Reorder | Dup | Modify

type ctl =
  | C_init
  | C_start
  | C_counter_update of { cid : int; value : int }
  | C_term_status of { tid : int; status : bool }
  | C_var_bind of { vid : int }
  | C_report_stop of { nid : int }
  | C_report_error of { nid : int; rule : int }

type body =
  | Packet_classified of { point : point; fid : int }
  | Counter_changed of { cid : int; value : int; delta : int }
  | Term_flipped of { tid : int; status : bool }
  | Condition_rose of { did : int }
  | Action_fired of { did : int; aid : int }
  | Fault_applied of { did : int; aid : int; fault : fault_kind }
  | Control_sent of { dst_nid : int; ctl : ctl }
  | Control_received of { ctl : ctl }
  | Report_raised of { nid : int; rule : int option }
  | Expect_checked of { xid : int; ok : bool }

type t = {
  seq : int;
  time : Vw_sim.Simtime.t;
  node : string;
  nid : int;
  cause : int;
  body : body;
}

let kind_name = function
  | Packet_classified _ -> "packet_classified"
  | Counter_changed _ -> "counter_changed"
  | Term_flipped _ -> "term_flipped"
  | Condition_rose _ -> "condition_rose"
  | Action_fired _ -> "action_fired"
  | Fault_applied _ -> "fault_applied"
  | Control_sent _ -> "control_sent"
  | Control_received _ -> "control_received"
  | Report_raised _ -> "report_raised"
  | Expect_checked _ -> "expect_checked"

let all_kind_names =
  [
    "packet_classified";
    "counter_changed";
    "term_flipped";
    "condition_rose";
    "action_fired";
    "fault_applied";
    "control_sent";
    "control_received";
    "report_raised";
    "expect_checked";
  ]

let point_name = function Ingress -> "ingress" | Egress -> "egress"

let fault_name = function
  | Drop -> "drop"
  | Delay -> "delay"
  | Reorder -> "reorder"
  | Dup -> "dup"
  | Modify -> "modify"

let ctl_name = function
  | C_init -> "init"
  | C_start -> "start"
  | C_counter_update _ -> "counter_update"
  | C_term_status _ -> "term_status"
  | C_var_bind _ -> "var_bind"
  | C_report_stop _ -> "report_stop"
  | C_report_error _ -> "report_error"

(* --- Fixed-layout field codec (schema "vw-events/2") ---

   Every body flattens to five integers: a kind code, a small enum byte
   [aux] (hook point / term status / fault kind / ctl tag / rule-present),
   a 32-bit id [a] and two full-width payloads [b]/[c] (counter values and
   deltas are arbitrary ints). The mapping is total and injective so that
   decode (of_fields) after encode (to_fields) is the identity — the
   qcheck property in test_report keeps that honest. *)

let fault_code = function
  | Drop -> 0
  | Delay -> 1
  | Reorder -> 2
  | Dup -> 3
  | Modify -> 4

let ctl_to_fields = function
  | C_init -> (0, 0, 0)
  | C_start -> (1, 0, 0)
  | C_counter_update { cid; value } -> (2, cid, value)
  | C_term_status { tid; status } -> (3, tid, if status then 1 else 0)
  | C_var_bind { vid } -> (4, vid, 0)
  | C_report_stop { nid } -> (5, nid, 0)
  | C_report_error { nid; rule } -> (6, nid, rule)

let ctl_of_fields ~tag ~b ~c =
  match tag with
  | 0 -> Ok C_init
  | 1 -> Ok C_start
  | 2 -> Ok (C_counter_update { cid = b; value = c })
  | 3 when c = 0 || c = 1 -> Ok (C_term_status { tid = b; status = c = 1 })
  | 3 -> Error (Printf.sprintf "term_status with non-boolean status %d" c)
  | 4 -> Ok (C_var_bind { vid = b })
  | 5 -> Ok (C_report_stop { nid = b })
  | 6 -> Ok (C_report_error { nid = b; rule = c })
  | n -> Error (Printf.sprintf "unknown ctl tag %d" n)

let to_fields = function
  | Packet_classified { point; fid } ->
      (0, (match point with Ingress -> 0 | Egress -> 1), fid, 0, 0)
  | Counter_changed { cid; value; delta } -> (1, 0, cid, delta, value)
  | Term_flipped { tid; status } -> (2, (if status then 1 else 0), tid, 0, 0)
  | Condition_rose { did } -> (3, 0, did, 0, 0)
  | Action_fired { did; aid } -> (4, 0, did, aid, 0)
  | Fault_applied { did; aid; fault } -> (5, fault_code fault, did, aid, 0)
  | Control_sent { dst_nid; ctl } ->
      let tag, b, c = ctl_to_fields ctl in
      (6, tag, dst_nid, b, c)
  | Control_received { ctl } ->
      let tag, b, c = ctl_to_fields ctl in
      (7, tag, 0, b, c)
  | Report_raised { nid; rule = None } -> (8, 0, nid, 0, 0)
  | Report_raised { nid; rule = Some r } -> (8, 1, nid, r, 0)
  | Expect_checked { xid; ok } -> (9, (if ok then 1 else 0), xid, 0, 0)

let of_fields ~kind ~aux ~a ~b ~c =
  let bad what v = Error (Printf.sprintf "%s %d out of range" what v) in
  match kind with
  | 0 -> (
      match aux with
      | 0 -> Ok (Packet_classified { point = Ingress; fid = a })
      | 1 -> Ok (Packet_classified { point = Egress; fid = a })
      | _ -> bad "hook point" aux)
  | 1 -> Ok (Counter_changed { cid = a; value = c; delta = b })
  | 2 ->
      if aux = 0 || aux = 1 then Ok (Term_flipped { tid = a; status = aux = 1 })
      else bad "term status" aux
  | 3 -> Ok (Condition_rose { did = a })
  | 4 -> Ok (Action_fired { did = a; aid = b })
  | 5 -> (
      let fault =
        match aux with
        | 0 -> Some Drop
        | 1 -> Some Delay
        | 2 -> Some Reorder
        | 3 -> Some Dup
        | 4 -> Some Modify
        | _ -> None
      in
      match fault with
      | Some fault -> Ok (Fault_applied { did = a; aid = b; fault })
      | None -> bad "fault kind" aux)
  | 6 ->
      Result.map
        (fun ctl -> Control_sent { dst_nid = a; ctl })
        (ctl_of_fields ~tag:aux ~b ~c)
  | 7 ->
      Result.map (fun ctl -> Control_received { ctl }) (ctl_of_fields ~tag:aux ~b ~c)
  | 8 -> (
      match aux with
      | 0 -> Ok (Report_raised { nid = a; rule = None })
      | 1 -> Ok (Report_raised { nid = a; rule = Some b })
      | _ -> bad "rule-present flag" aux)
  | 9 ->
      if aux = 0 || aux = 1 then Ok (Expect_checked { xid = a; ok = aux = 1 })
      else bad "expect-ok flag" aux
  | n -> bad "event kind" n

(* --- JSONL serialization (schema "vw-events/1") ---

   One JSON object per line; field set depends on "kind". Strings that
   appear here (node names from FSL scripts, fixed kind tags) contain no
   characters needing escapes beyond the JSON basics, but escape anyway so
   the stream stays parseable whatever a script names its nodes. *)

let json_escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let add_ctl_fields b = function
  | C_init | C_start -> ()
  | C_counter_update { cid; value } ->
      Buffer.add_string b (Printf.sprintf ",\"cid\":%d,\"value\":%d" cid value)
  | C_term_status { tid; status } ->
      Buffer.add_string b (Printf.sprintf ",\"tid\":%d,\"status\":%b" tid status)
  | C_var_bind { vid } -> Buffer.add_string b (Printf.sprintf ",\"vid\":%d" vid)
  | C_report_stop { nid } ->
      Buffer.add_string b (Printf.sprintf ",\"report_nid\":%d" nid)
  | C_report_error { nid; rule } ->
      Buffer.add_string b
        (Printf.sprintf ",\"report_nid\":%d,\"rule\":%d" nid rule)

let to_json e =
  let b = Buffer.create 160 in
  Buffer.add_string b
    (Printf.sprintf "{\"seq\":%d,\"time_ns\":%d,\"node\":\"%s\",\"nid\":%d,\"cause\":%d,\"kind\":\"%s\""
       e.seq e.time (json_escape e.node) e.nid e.cause (kind_name e.body));
  (match e.body with
  | Packet_classified { point; fid } ->
      Buffer.add_string b
        (Printf.sprintf ",\"point\":\"%s\",\"fid\":%d" (point_name point) fid)
  | Counter_changed { cid; value; delta } ->
      Buffer.add_string b
        (Printf.sprintf ",\"cid\":%d,\"value\":%d,\"delta\":%d" cid value delta)
  | Term_flipped { tid; status } ->
      Buffer.add_string b (Printf.sprintf ",\"tid\":%d,\"status\":%b" tid status)
  | Condition_rose { did } -> Buffer.add_string b (Printf.sprintf ",\"did\":%d" did)
  | Action_fired { did; aid } ->
      Buffer.add_string b (Printf.sprintf ",\"did\":%d,\"aid\":%d" did aid)
  | Fault_applied { did; aid; fault } ->
      Buffer.add_string b
        (Printf.sprintf ",\"did\":%d,\"aid\":%d,\"fault\":\"%s\"" did aid
           (fault_name fault))
  | Control_sent { dst_nid; ctl } ->
      Buffer.add_string b
        (Printf.sprintf ",\"dst_nid\":%d,\"ctl\":\"%s\"" dst_nid (ctl_name ctl));
      add_ctl_fields b ctl
  | Control_received { ctl } ->
      Buffer.add_string b (Printf.sprintf ",\"ctl\":\"%s\"" (ctl_name ctl));
      add_ctl_fields b ctl
  | Report_raised { nid; rule } -> (
      Buffer.add_string b (Printf.sprintf ",\"report_nid\":%d" nid);
      match rule with
      | Some r -> Buffer.add_string b (Printf.sprintf ",\"rule\":%d" r)
      | None -> ())
  | Expect_checked { xid; ok } ->
      Buffer.add_string b (Printf.sprintf ",\"xid\":%d,\"ok\":%b" xid ok));
  Buffer.add_char b '}';
  Buffer.contents b
