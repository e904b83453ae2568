(** Interned string table for the binary flight recorder ([vw-events/2]).

    Every string that a binary event record needs (today: testbed node
    names) is interned once per run and referenced from the fixed-layout
    slots by its dense id ({e sid}). One table is shared by all recorders
    of a run — [Vw_core.Testbed.enable_observability] creates it — and its
    contents are written once into the log header, so record slots never
    carry string payloads.

    Ids are assigned in first-intern order and are stable for the life of
    the table; the file format stores entries in id order, so sid [i] on
    disk is simply the [i]-th table entry. Sids are u16 on the wire
    (at most 65536 entries) and entries are length-prefixed with a u16
    (at most 65535 bytes each); {!intern} enforces both bounds. *)

type t

val create : unit -> t

val intern : t -> string -> int
(** Return the sid for [s], assigning the next dense id on first sight.
    Raises [Invalid_argument] past 65536 entries or for strings longer
    than 65535 bytes. *)

val to_list : t -> string list
(** All entries in sid order — what the log header serializes. *)
