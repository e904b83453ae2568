let digit_of_char c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> invalid_arg (Printf.sprintf "Hexutil.of_hex: bad hex digit %C" c)

let strip_prefix s =
  if String.length s >= 2 && s.[0] = '0' && (s.[1] = 'x' || s.[1] = 'X') then
    String.sub s 2 (String.length s - 2)
  else s

let of_hex s =
  let s = strip_prefix s in
  let s = if String.length s mod 2 = 1 then "0" ^ s else s in
  let n = String.length s / 2 in
  let b = Bytes.create n in
  for i = 0 to n - 1 do
    let hi = digit_of_char s.[2 * i] and lo = digit_of_char s.[(2 * i) + 1] in
    Bytes.set b i (Char.chr ((hi lsl 4) lor lo))
  done;
  b

let to_hex b =
  let buf = Buffer.create (2 * Bytes.length b) in
  Bytes.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c))) b;
  Buffer.contents buf

let of_hex_value ~width v =
  if width <= 0 then invalid_arg "Hexutil.of_hex_value: width must be positive";
  if v < 0 then invalid_arg "Hexutil.of_hex_value: negative value";
  if width < 8 && v lsr (8 * width) <> 0 then
    invalid_arg
      (Printf.sprintf "Hexutil.of_hex_value: %d does not fit in %d bytes" v width);
  let b = Bytes.create width in
  for i = 0 to width - 1 do
    Bytes.set b (width - 1 - i) (Char.chr ((v lsr (8 * i)) land 0xff))
  done;
  b

let to_int_be b ~pos ~len =
  if len < 1 || len > 7 then invalid_arg "Hexutil.to_int_be: len out of [1;7]";
  if pos < 0 || pos + len > Bytes.length b then
    invalid_arg "Hexutil.to_int_be: out of range";
  let acc = ref 0 in
  for i = pos to pos + len - 1 do
    acc := (!acc lsl 8) lor Char.code (Bytes.get b i)
  done;
  !acc

let set_int_be b ~pos ~len v =
  if len < 1 || len > 7 then invalid_arg "Hexutil.set_int_be: len out of [1;7]";
  if pos < 0 || pos + len > Bytes.length b then
    invalid_arg "Hexutil.set_int_be: out of range";
  for i = 0 to len - 1 do
    Bytes.set b (pos + len - 1 - i) (Char.chr ((v lsr (8 * i)) land 0xff))
  done

let masked_equal b ~pos ~pattern ~mask =
  let len = Bytes.length pattern in
  if pos < 0 || pos + len > Bytes.length b then false
  else begin
    let m i =
      match mask with
      | None -> 0xff
      | Some m when i < Bytes.length m -> Char.code (Bytes.get m i)
      | Some _ -> 0xff
    in
    let rec go i =
      if i = len then true
      else
        let bv = Char.code (Bytes.get b (pos + i)) land m i in
        let pv = Char.code (Bytes.get pattern i) land m i in
        if bv = pv then go (i + 1) else false
    in
    go 0
  end
