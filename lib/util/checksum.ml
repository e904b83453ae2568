external get64u : bytes -> int -> int64 = "%caml_bytes_get64u"
external get16u : bytes -> int -> int = "%caml_bytes_get16u"
external swap64 : int64 -> int64 = "%bswap_int64"
external swap16 : int -> int = "%bswap16"

let ones_sum b ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Checksum.ones_sum: out of range";
  let acc = ref 0 in
  let i = ref pos in
  let stop = pos + len in
  (* Eight bytes at a time, added as two big-endian 32-bit halves: a 32-bit
     word and its two 16-bit words agree modulo 0xffff (2^16 = 1). *)
  while !i + 8 <= stop do
    let w = get64u b !i in
    let w = if Sys.big_endian then w else swap64 w in
    acc :=
      !acc
      + Int64.to_int (Int64.shift_right_logical w 32)
      + (Int64.to_int w land 0xffff_ffff);
    i := !i + 8
  done;
  while !i + 2 <= stop do
    let v = get16u b !i in
    acc := !acc + if Sys.big_endian then v else swap16 v;
    i := !i + 2
  done;
  if !i < stop then acc := !acc + (Char.code (Bytes.unsafe_get b !i) lsl 8);
  !acc

let finish acc =
  let acc = ref acc in
  while !acc lsr 16 <> 0 do
    acc := (!acc land 0xffff) + (!acc lsr 16)
  done;
  lnot !acc land 0xffff

let checksum b ~pos ~len = finish (ones_sum b ~pos ~len)

let is_valid b ~pos ~len = finish (ones_sum b ~pos ~len) = 0
