type t = int (* the 48 bits, first octet in bits 40–47 *)

let of_string s =
  let parts = String.split_on_char ':' s in
  if List.length parts <> 6 then
    invalid_arg (Printf.sprintf "Mac.of_string: %S is not xx:xx:xx:xx:xx:xx" s);
  List.fold_left
    (fun acc p ->
      if String.length p <> 2 then
        invalid_arg (Printf.sprintf "Mac.of_string: bad octet %S" p);
      let v =
        try int_of_string ("0x" ^ p)
        with Failure _ ->
          invalid_arg (Printf.sprintf "Mac.of_string: bad octet %S" p)
      in
      (acc lsl 8) lor v)
    0 parts

let to_string t =
  Printf.sprintf "%02x:%02x:%02x:%02x:%02x:%02x" (t lsr 40)
    ((t lsr 32) land 0xff) ((t lsr 24) land 0xff) ((t lsr 16) land 0xff)
    ((t lsr 8) land 0xff) (t land 0xff)

let of_bytes b ~pos =
  if pos < 0 || pos + 6 > Bytes.length b then invalid_arg "Mac.of_bytes";
  (Bytes.get_uint16_be b pos lsl 32)
  lor (Bytes.get_uint16_be b (pos + 2) lsl 16)
  lor Bytes.get_uint16_be b (pos + 4)

let write t b ~pos =
  if pos < 0 || pos + 6 > Bytes.length b then invalid_arg "Mac.write";
  Bytes.set_uint16_be b pos (t lsr 32);
  Bytes.set_uint16_be b (pos + 2) ((t lsr 16) land 0xffff);
  Bytes.set_uint16_be b (pos + 4) (t land 0xffff)

let get_byte t i =
  if i < 0 || i > 5 then invalid_arg "Mac.get_byte";
  (t lsr (40 - (8 * i))) land 0xff

let broadcast = 0xffff_ffff_ffff
let is_broadcast t = t = broadcast
let of_int n = 0x02_00_00_00_00_00 lor (n land 0xff_ffff)
let equal (a : t) b = a = b
let compare (a : t) b = Int.compare a b
let pp ppf t = Format.pp_print_string ppf (to_string t)
