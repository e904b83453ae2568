(** Binary flight-recorder log codec (schema [vw-events/2]).

    Fixed-layout 48-byte little-endian record slots — no varints, no
    per-record strings — plus a file header that carries the run's
    {!Strtab} so slots reference node names by u16 sid. The layout (see
    docs/OBSERVABILITY.md for the byte-level table):

    {v
    off  size  field
      0   u48  seq    run-global sequence number
      6   u16  sid    node-name id in the header string table
      8   i64  time   simulation time, ns
     16   u48  cause  seq of the causal root
     22   i16  nid    node-table id (-1 before INIT)
     24    u8  kind   Event.kind_code (0..9)
     25    u8  aux    enum byte (point/status/fault/ctl tag/rule flag)
     26   i32  a      primary id
     30   i64  b      payload
     38   i64  c      payload
     46   2B   reserved, zero
    v}

    Signed fields hold any OCaml int (63-bit two's complement) exactly;
    [seq]/[cause] are unsigned 48-bit. Encoding never allocates — the
    recorder calls {!encode_slot} straight into its preallocated ring. *)

val magic : string
(** The 6-byte file magic, ["VWEV2\x00"]. *)

val slot_bytes : int
(** Record slot width: 48. *)

val o_seq : int
val o_time : int
val o_cause : int
val o_kind : int
val o_b : int
val o_c : int
(** Byte offsets of the slot fields, per the table above, that the
    recorder's open-coded hot-path encoder and the layout tests use. *)

val is_binary : string -> bool
(** True when [s] starts with the vw-events/2 magic — how [Events_io]
    sniffs binary logs apart from JSONL. *)

val encode_slot :
  Bytes.t ->
  off:int ->
  seq:int ->
  sid:int ->
  time:int ->
  cause:int ->
  nid:int ->
  kind:int ->
  aux:int ->
  a:int ->
  b:int ->
  c:int ->
  unit
(** Write one record slot at [off]. No bounds or range checks: callers
    guarantee [off + slot_bytes <= Bytes.length buf] and field ranges
    (ids fit i32, seq/cause fit u48, nid fits i16). *)

val decode_slot : Bytes.t -> off:int -> node:string -> (Event.t, string) result
(** Read one record slot back into a typed event, with the node name
    already resolved from the slot's sid by the caller. *)

val slot_sid : Bytes.t -> off:int -> int
(** The sid field of the slot at [off]. *)

val add_slot_of_event : Buffer.t -> sid:int -> Event.t -> unit
(** Append one typed event as a record slot — the slow-path encoder behind
    {!of_events}, and the reference the recorder's open-coded hot path is
    tested against. *)

type meta = { scenario : string; recorded : int; dropped : int }
(** Header fields mirroring the vw-events/1 JSONL header line. *)

val add_header :
  Buffer.t ->
  scenario:string ->
  recorded:int ->
  dropped:int ->
  strings:string list ->
  records:int ->
  unit
(** Append the file header: magic, fixed fields, scenario name, and the
    string table in sid order. [records] must equal the number of slots
    appended after it. *)

val of_string : string -> (meta * Event.t list, string) result
(** Decode a complete vw-events/2 file. Events are sorted by [seq]
    (per-node ring dumps are concatenated on disk). Errors name the
    offending record and field. *)

val of_events :
  scenario:string -> recorded:int -> dropped:int -> Event.t list -> string
(** Serialize typed events to a complete vw-events/2 file, interning node
    names in first-seen order — convenience for tests and oracles. *)
