type t = { dst : Mac.t; src : Mac.t; ethertype : int; payload : bytes }

let header_size = 14
let ethertype_ipv4 = 0x0800
let ethertype_rether = 0x9900
let ethertype_rll = 0x88B5
let ethertype_vw_control = 0x88B6

let make ~dst ~src ~ethertype payload = { dst; src; ethertype; payload }
let size t = header_size + Bytes.length t.payload

let to_bytes t =
  let b = Bytes.create (size t) in
  Mac.write t.dst b ~pos:0;
  Mac.write t.src b ~pos:6;
  Bytes.set_uint16_be b 12 (t.ethertype land 0xffff);
  Bytes.blit t.payload 0 b header_size (Bytes.length t.payload);
  b

(* --- zero-copy field access over the serialized layout ---

   The FIE classifies every frame against filter-table offsets into the
   serialized form (dst@0, src@6, ethertype@12, payload from 14). These
   accessors answer those reads straight from the record, so the hot path
   never has to allocate a [to_bytes] copy just to classify. *)

let get_byte t i =
  if i < 12 then
    if i < 6 then ((t.dst :> int) lsr (40 - (8 * i))) land 0xff
    else ((t.src :> int) lsr (88 - (8 * i))) land 0xff
  else if i = 12 then (t.ethertype lsr 8) land 0xff
  else if i = 13 then t.ethertype land 0xff
  else Char.code (Bytes.get t.payload (i - 14))

(* Big-endian accumulation over a half-open byte range. Top-level and
   closure-free: a local [let rec] capturing [t] would be allocated as a
   closure on every call. *)
let rec frame_be t i stop acc =
  if i = stop then acc else frame_be t (i + 1) stop ((acc lsl 8) lor get_byte t i)

let rec bytes_be b i stop acc =
  if i = stop then acc
  else bytes_be b (i + 1) stop ((acc lsl 8) lor Char.code (Bytes.unsafe_get b i))

let read_window t ~pos ~len =
  if pos >= header_size then
    let base = pos - header_size in
    bytes_be t.payload base (base + len) 0
  else frame_be t pos (pos + len) 0

(* Masked comparison for the compiled (SoA) filter tables: pattern and
   mask are slices of shared byte pools instead of standalone [bytes].
   [mask_len = 0] means unmasked; mask bytes beyond [mask_len] are treated
   as 0xff, mirroring [Hexutil.masked_equal]'s short-mask rule. The caller
   guarantees the pattern/mask slices are in bounds (they come from a
   compile-time pool); the frame-side bounds are checked here. *)
let field_matches t ~pos ~pat ~pat_off ~pat_len ~mask ~mask_off ~mask_len =
  if pos < 0 || pat_len < 0 || pos + pat_len > size t then false
  else begin
    (* loops over refs the compiler keeps in registers: no closure, no
       allocation *)
    let i = ref 0 and ok = ref true in
    if pos >= header_size then begin
      (* entirely inside the payload: compare in place, no per-byte dispatch *)
      let p = t.payload in
      let base = pos - header_size in
      while !ok && !i < pat_len do
        let k = !i in
        let m =
          if k < mask_len then Char.code (Bytes.unsafe_get mask (mask_off + k))
          else 0xff
        in
        ok :=
          Char.code (Bytes.unsafe_get p (base + k)) land m
          = Char.code (Bytes.unsafe_get pat (pat_off + k)) land m;
        i := k + 1
      done
    end
    else
      while !ok && !i < pat_len do
        let k = !i in
        let m =
          if k < mask_len then Char.code (Bytes.get mask (mask_off + k)) else 0xff
        in
        ok :=
          get_byte t (pos + k) land m = Char.code (Bytes.get pat (pat_off + k)) land m;
        i := k + 1
      done;
    !ok
  end

let of_bytes b =
  if Bytes.length b < header_size then
    invalid_arg "Eth.of_bytes: frame shorter than header";
  {
    dst = Mac.of_bytes b ~pos:0;
    src = Mac.of_bytes b ~pos:6;
    ethertype = Bytes.get_uint16_be b 12;
    payload = Bytes.sub b header_size (Bytes.length b - header_size);
  }

let pp ppf t =
  Format.fprintf ppf "[eth %a -> %a type=0x%04x len=%d]" Mac.pp t.src Mac.pp
    t.dst t.ethertype (size t)
