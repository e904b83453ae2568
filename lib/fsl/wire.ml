module W = struct
  type t = Buffer.t

  let create () = Buffer.create 256
  let u8 b v = Buffer.add_char b (Char.chr (v land 0xff))

  let u16 b v =
    u8 b (v lsr 8);
    u8 b v

  let u32 b v =
    u16 b (v lsr 16);
    u16 b v

  let i64 b v =
    for i = 7 downto 0 do
      u8 b ((v asr (8 * i)) land 0xff)
    done

  let bytes b v =
    u32 b (Bytes.length v);
    Buffer.add_bytes b v

  let string b v = bytes b (Bytes.of_string v)
  let bool b v = u8 b (if v then 1 else 0)

  let option b f = function
    | None -> u8 b 0
    | Some v ->
        u8 b 1;
        f b v

  let list b f vs =
    u32 b (List.length vs);
    List.iter (f b) vs

  let contents b = Buffer.to_bytes b
end

module R = struct
  type t = { data : bytes; mutable pos : int }

  exception Underflow of string

  let of_bytes data = { data; pos = 0 }

  let need r n what =
    if r.pos + n > Bytes.length r.data then raise (Underflow what)

  let u8 r =
    need r 1 "u8";
    let v = Char.code (Bytes.get r.data r.pos) in
    r.pos <- r.pos + 1;
    v

  let u16 r =
    let hi = u8 r in
    (hi lsl 8) lor u8 r

  let u32 r =
    let hi = u16 r in
    (hi lsl 16) lor u16 r

  let i64 r =
    let v = ref 0 in
    for _ = 1 to 8 do
      v := (!v lsl 8) lor u8 r
    done;
    (* sign-extend from 64 bits into OCaml's 63-bit int: the top byte was
       written with asr so bit 63 equals bit 62 for in-range values *)
    !v

  let bytes r =
    let n = u32 r in
    need r n "bytes";
    let v = Bytes.sub r.data r.pos n in
    r.pos <- r.pos + n;
    v

  let string r = Bytes.to_string (bytes r)

  let bool r = u8 r <> 0

  let option r f = match u8 r with 0 -> None | _ -> Some (f r)

  let list r f =
    let n = u32 r in
    List.init n (fun _ -> f r)
end
