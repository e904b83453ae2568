type t =
  | Echo_request of { id : int; seq : int; payload : bytes }
  | Echo_reply of { id : int; seq : int; payload : bytes }
  | Dest_unreachable of { code : int; original : bytes }

let protocol = 1
let code_port_unreachable = 3

let type_echo_reply = 0
let type_dest_unreachable = 3
let type_echo_request = 8

let with_checksum b =
  Vw_util.Hexutil.set_int_be b ~pos:2 ~len:2 0;
  let csum = Vw_util.Checksum.checksum b ~pos:0 ~len:(Bytes.length b) in
  Vw_util.Hexutil.set_int_be b ~pos:2 ~len:2 csum;
  b

let to_bytes t =
  match t with
  | Echo_request { id; seq; payload } | Echo_reply { id; seq; payload } ->
      let b = Bytes.create (8 + Bytes.length payload) in
      Bytes.set b 0
        (Char.chr
           (match t with Echo_request _ -> type_echo_request | _ -> type_echo_reply));
      Bytes.set b 1 '\x00';
      Vw_util.Hexutil.set_int_be b ~pos:4 ~len:2 (id land 0xffff);
      Vw_util.Hexutil.set_int_be b ~pos:6 ~len:2 (seq land 0xffff);
      Bytes.blit payload 0 b 8 (Bytes.length payload);
      with_checksum b
  | Dest_unreachable { code; original } ->
      let b = Bytes.create (8 + Bytes.length original) in
      Bytes.set b 0 (Char.chr type_dest_unreachable);
      Bytes.set b 1 (Char.chr (code land 0xff));
      Vw_util.Hexutil.set_int_be b ~pos:4 ~len:2 0;
      Vw_util.Hexutil.set_int_be b ~pos:6 ~len:2 0;
      Bytes.blit original 0 b 8 (Bytes.length original);
      with_checksum b

let of_bytes b =
  let len = Bytes.length b in
  if len < 8 then Error "icmp: truncated"
  else if not (Vw_util.Checksum.is_valid b ~pos:0 ~len) then
    Error "icmp: checksum mismatch"
  else
    let ty = Char.code (Bytes.get b 0) in
    let code = Char.code (Bytes.get b 1) in
    let id = Vw_util.Hexutil.to_int_be b ~pos:4 ~len:2 in
    let seq = Vw_util.Hexutil.to_int_be b ~pos:6 ~len:2 in
    let rest = Bytes.sub b 8 (len - 8) in
    if ty = type_echo_request then Ok (Echo_request { id; seq; payload = rest })
    else if ty = type_echo_reply then Ok (Echo_reply { id; seq; payload = rest })
    else if ty = type_dest_unreachable then
      Ok (Dest_unreachable { code; original = rest })
    else Error (Printf.sprintf "icmp: unsupported type %d" ty)
