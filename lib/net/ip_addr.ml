type t = int32

let of_string s =
  let parts = String.split_on_char '.' s in
  if List.length parts <> 4 then
    invalid_arg (Printf.sprintf "Ip_addr.of_string: %S is not a dotted quad" s);
  let octets =
    List.map
      (fun p ->
        let v = try int_of_string p with Failure _ -> -1 in
        if v < 0 || v > 255 then
          invalid_arg (Printf.sprintf "Ip_addr.of_string: bad octet %S" p);
        v)
      parts
  in
  match octets with
  | [ a; b; c; d ] ->
      Int32.logor
        (Int32.shift_left (Int32.of_int a) 24)
        (Int32.of_int ((b lsl 16) lor (c lsl 8) lor d))
  | _ -> assert false

let to_string t =
  let v = Int32.to_int (Int32.logand t 0xFFFFFFl) in
  let a = Int32.to_int (Int32.shift_right_logical t 24) land 0xff in
  Printf.sprintf "%d.%d.%d.%d" a ((v lsr 16) land 0xff) ((v lsr 8) land 0xff)
    (v land 0xff)

let of_bytes b ~pos =
  if pos < 0 || pos + 4 > Bytes.length b then invalid_arg "Ip_addr.of_bytes";
  Int32.of_int (Vw_util.Hexutil.to_int_be b ~pos ~len:4)

let to_int t = Int32.to_int t land 0xFFFFFFFF
let write t b ~pos = Vw_util.Hexutil.set_int_be b ~pos ~len:4 (to_int t)

let of_host_index n =
  of_string (Printf.sprintf "10.0.%d.%d" ((n lsr 8) land 0xff) (n land 0xff))

let equal = Int32.equal
let pp ppf t = Format.pp_print_string ppf (to_string t)
