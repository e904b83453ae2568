type t = string (* exactly 6 raw bytes *)

let of_string s =
  let parts = String.split_on_char ':' s in
  if List.length parts <> 6 then
    invalid_arg (Printf.sprintf "Mac.of_string: %S is not xx:xx:xx:xx:xx:xx" s);
  let b = Bytes.create 6 in
  List.iteri
    (fun i p ->
      if String.length p <> 2 then
        invalid_arg (Printf.sprintf "Mac.of_string: bad octet %S" p);
      let v =
        try int_of_string ("0x" ^ p)
        with Failure _ ->
          invalid_arg (Printf.sprintf "Mac.of_string: bad octet %S" p)
      in
      Bytes.set b i (Char.chr v))
    parts;
  Bytes.to_string b

let to_string t =
  String.concat ":"
    (List.init 6 (fun i -> Printf.sprintf "%02x" (Char.code t.[i])))

let of_bytes b ~pos =
  if pos < 0 || pos + 6 > Bytes.length b then invalid_arg "Mac.of_bytes";
  Bytes.sub_string b pos 6

let write t b ~pos = Bytes.blit_string t 0 b pos 6
let get_byte t i = Char.code t.[i]
let broadcast = String.make 6 '\xff'
let is_broadcast t = String.equal t broadcast

let of_int n =
  let b = Bytes.create 6 in
  Bytes.set b 0 '\x02';
  Bytes.set b 1 '\x00';
  Bytes.set b 2 '\x00';
  Bytes.set b 3 (Char.chr ((n lsr 16) land 0xff));
  Bytes.set b 4 (Char.chr ((n lsr 8) land 0xff));
  Bytes.set b 5 (Char.chr (n land 0xff));
  Bytes.to_string b

let equal = String.equal
let compare = String.compare
let pp ppf t = Format.pp_print_string ppf (to_string t)
