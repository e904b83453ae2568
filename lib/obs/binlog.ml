(* vw-events/2: fixed 48-byte little-endian record slots plus a small file
   header carrying the interned string table. All multi-byte fields are
   written with manual per-byte stores — [Bytes.set_int64_le] and friends
   take boxed [Int64]s, which would put an allocation back on the hot path
   the whole format exists to remove. Signed fields use arithmetic shifts
   on the way out and explicit sign extension on the way in, so any OCaml
   int (63-bit two's complement) round-trips exactly. *)

let magic = "VWEV2\x00"
let slot_bytes = 48

(* Slot offsets. Bytes 46..47 are reserved and always zero. *)
let o_seq = 0 (* u48  run-global sequence number *)
let o_sid = 6 (* u16  node-name sid in the string table *)
let o_time = 8 (* i64  simulation time, ns *)
let o_cause = 16 (* u48  seq of the causal root *)
let o_nid = 22 (* i16  node-table id; -1 before INIT *)
let o_kind = 24 (* u8   event kind, Event.to_fields *)
let o_aux = 25 (* u8   enum byte, meaning depends on kind *)
let o_a = 26 (* i32  primary id (fid/cid/tid/did/nid) *)
let o_b = 30 (* i64  payload (delta/aid/ctl arg 1/rule) *)
let o_c = 38 (* i64  payload (value/ctl arg 2) *)

(* --- raw little-endian accessors --- *)

let set8 b off v = Bytes.unsafe_set b off (Char.unsafe_chr (v land 0xff))

let set16 b off v =
  set8 b off v;
  set8 b (off + 1) (v asr 8)

let set32 b off v =
  set16 b off v;
  set16 b (off + 2) (v asr 16)

let set64 b off v =
  set32 b off v;
  set32 b (off + 4) (v asr 32)

let get8 b off = Char.code (Bytes.unsafe_get b off)
let get16 b off = get8 b off lor (get8 b (off + 1) lsl 8)

let get16_signed b off =
  let v = get16 b off in
  if v >= 0x8000 then v - 0x10000 else v

let get32_signed b off =
  let v = get16 b off lor (get16 b (off + 2) lsl 16) in
  if v >= 0x80000000 then v - 0x100000000 else v

let get48 b off =
  get16 b off lor (get16 b (off + 2) lsl 16) lor (get16 b (off + 4) lsl 32)

let get32_unsigned_lo b off =
  get8 b off
  lor (get8 b (off + 1) lsl 8)
  lor (get8 b (off + 2) lsl 16)
  lor (get8 b (off + 3) lsl 24)

let get64 b off =
  let hi = get8 b (off + 7) in
  let hi = if hi >= 0x80 then hi - 0x100 else hi in
  (hi lsl 56)
  lor (get8 b (off + 6) lsl 48)
  lor (get8 b (off + 5) lsl 40)
  lor (get8 b (off + 4) lsl 32)
  lor get32_unsigned_lo b off

(* --- slot codec --- *)

(* The hot-path encoder issues six unaligned 64-bit stores instead of 46
   byte stores. [%caml_bytes_set64u] takes an [int64], but the classic
   compiler unboxes a boxed-int argument built in place, so the
   [Int64.of_int]/[logor]/[shift_left] chains below compile to plain
   register ops — no allocation (asserted by the no-alloc parity test).
   Field packing mirrors the slot offsets above: word 24 carries
   kind·aux·a with its top two bytes zero, then the [b] store at 30
   overwrites those two bytes. Bytes 46..47 are never written and stay
   zero from ring initialisation. *)
external set_64u : bytes -> int -> int64 -> unit = "%caml_bytes_set64u"

let encode_slot buf ~off ~seq ~sid ~time ~cause ~nid ~kind ~aux ~a ~b ~c =
  set_64u buf (off + o_seq)
    (Int64.logor (Int64.of_int seq) (Int64.shift_left (Int64.of_int sid) 48));
  set_64u buf (off + o_time) (Int64.of_int time);
  set_64u buf (off + o_cause)
    (Int64.logor (Int64.of_int cause)
       (Int64.shift_left (Int64.of_int (nid land 0xffff)) 48));
  set_64u buf (off + o_kind)
    (Int64.of_int (kind lor (aux lsl 8) lor ((a land 0xffffffff) lsl 16)));
  set_64u buf (off + o_b) (Int64.of_int b);
  set_64u buf (off + o_c) (Int64.of_int c)

let decode_slot buf ~off ~node =
  let seq = get48 buf (off + o_seq) in
  let kind = get8 buf (off + o_kind) in
  let aux = get8 buf (off + o_aux) in
  let a = get32_signed buf (off + o_a) in
  let b = get64 buf (off + o_b) in
  let c = get64 buf (off + o_c) in
  match Event.of_fields ~kind ~aux ~a ~b ~c with
  | Ok body ->
      Ok
        {
          Event.seq;
          time = get64 buf (off + o_time);
          node;
          nid = get16_signed buf (off + o_nid);
          cause = get48 buf (off + o_cause);
          body;
        }
  | Error e -> Error (Printf.sprintf "record seq %d: %s" seq e)

let slot_sid buf ~off = get16 buf (off + o_sid)

let add_slot_of_event buf ~sid (e : Event.t) =
  let s = Bytes.make slot_bytes '\000' in
  let kind, aux, a, b, c = Event.to_fields e.body in
  encode_slot s ~off:0 ~seq:e.seq ~sid ~time:e.time ~cause:e.cause ~nid:e.nid
    ~kind ~aux ~a ~b ~c;
  Buffer.add_bytes buf s

(* --- file framing ---

   magic(6) · slot_bytes u16 · scenario_len u32 · recorded u64 ·
   dropped u64 · nstrings u32 · nrecords u32 · scenario bytes ·
   nstrings × (u16 len · bytes) · nrecords × slot. Records are the
   per-node rings dumped back to back; readers sort by seq, exactly as
   Events_io already does for vw-events/1 lines. *)

type meta = { scenario : string; recorded : int; dropped : int }

let header_fixed = 36 (* magic + the six fixed header fields *)

let add_header buf ~scenario ~recorded ~dropped ~strings ~records =
  Buffer.add_string buf magic;
  let h = Bytes.make (header_fixed - 6) '\000' in
  set16 h 0 slot_bytes;
  set32 h 2 (String.length scenario);
  set64 h 6 recorded;
  set64 h 14 dropped;
  set32 h 22 (List.length strings);
  set32 h 26 records;
  Buffer.add_bytes buf h;
  Buffer.add_string buf scenario;
  List.iter
    (fun s ->
      let l = Bytes.create 2 in
      set16 l 0 (String.length s);
      Buffer.add_bytes buf l;
      Buffer.add_string buf s)
    strings

let is_binary s =
  String.length s >= String.length magic
  && String.sub s 0 (String.length magic) = magic

let of_string s =
  let len = String.length s in
  let err fmt = Printf.ksprintf (fun m -> Error ("vw-events/2: " ^ m)) fmt in
  if not (is_binary s) then err "missing VWEV2 magic"
  else if len < header_fixed then err "truncated header"
  else
    let buf = Bytes.unsafe_of_string s in
    let sb = get16 buf 6 in
    if sb <> slot_bytes then err "slot size %d, expected %d" sb slot_bytes
    else
      let scen_len = get32_signed buf 8 in
      let recorded = get64 buf 12 in
      let dropped = get64 buf 20 in
      let nstrings = get32_signed buf 28 in
      let records = get32_unsigned_lo buf 32 in
      if scen_len < 0 || nstrings < 0 then err "negative header field"
      else
        let pos = ref (header_fixed + scen_len) in
        if !pos > len then err "truncated scenario name"
          (* each entry takes at least its 2-byte length: refuse a count
             the bytes cannot hold before allocating the table *)
        else if nstrings > (len - !pos) / 2 then err "truncated string table"
        else begin
          let scenario = String.sub s header_fixed scen_len in
          let strings = Array.make (max nstrings 1) "" in
          let rec read_strings i =
            if i >= nstrings then Ok ()
            else if !pos + 2 > len then err "truncated string table"
            else begin
              let l = get16 buf !pos in
              pos := !pos + 2;
              if !pos + l > len then err "truncated string table entry"
              else begin
                strings.(i) <- String.sub s !pos l;
                pos := !pos + l;
                read_strings (i + 1)
              end
            end
          in
          match read_strings 0 with
          | Error _ as e -> e
          | Ok () ->
              if len - !pos <> records * slot_bytes then
                err "expected %d records (%d bytes), found %d bytes" records
                  (records * slot_bytes) (len - !pos)
              else begin
                let rec read_records i acc =
                  if i >= records then
                    Ok
                      (List.sort
                         (fun (x : Event.t) y -> compare x.seq y.seq)
                         acc)
                  else
                    let off = !pos + (i * slot_bytes) in
                    let sid = slot_sid buf ~off in
                    if sid >= nstrings then
                      err "record %d: sid %d outside string table (%d)" i sid
                        nstrings
                    else
                      match decode_slot buf ~off ~node:strings.(sid) with
                      | Ok e -> read_records (i + 1) (e :: acc)
                      | Error m -> Error ("vw-events/2: " ^ m)
                in
                match read_records 0 [] with
                | Ok events -> Ok ({ scenario; recorded; dropped }, events)
                | Error _ as e -> e
              end
        end

let of_events ~scenario ~recorded ~dropped events =
  let tab = Strtab.create () in
  List.iter (fun (e : Event.t) -> ignore (Strtab.intern tab e.node)) events;
  let buf = Buffer.create (128 + (List.length events * slot_bytes)) in
  add_header buf ~scenario ~recorded ~dropped ~strings:(Strtab.to_list tab)
    ~records:(List.length events);
  List.iter
    (fun (e : Event.t) -> add_slot_of_event buf ~sid:(Strtab.intern tab e.node) e)
    events;
  Buffer.contents buf
