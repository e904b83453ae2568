type t = int (* the unsigned 32 bits *)

let of_string s =
  let parts = String.split_on_char '.' s in
  if List.length parts <> 4 then
    invalid_arg (Printf.sprintf "Ip_addr.of_string: %S is not a dotted quad" s);
  List.fold_left
    (fun acc p ->
      let v = try int_of_string p with Failure _ -> -1 in
      if v < 0 || v > 255 then
        invalid_arg (Printf.sprintf "Ip_addr.of_string: bad octet %S" p);
      (acc lsl 8) lor v)
    0 parts

let to_string t =
  Printf.sprintf "%d.%d.%d.%d" (t lsr 24) ((t lsr 16) land 0xff)
    ((t lsr 8) land 0xff) (t land 0xff)

let of_bytes b ~pos =
  if pos < 0 || pos + 4 > Bytes.length b then invalid_arg "Ip_addr.of_bytes";
  Int32.to_int (Bytes.get_int32_be b pos) land 0xffff_ffff

let write t b ~pos =
  if pos < 0 || pos + 4 > Bytes.length b then invalid_arg "Ip_addr.write";
  Bytes.set_int32_be b pos (Int32.of_int t)

let of_host_index n = 0x0a_00_00_00 lor (n land 0xffff)
let equal (a : t) b = a = b
let pp ppf t = Format.pp_print_string ppf (to_string t)
