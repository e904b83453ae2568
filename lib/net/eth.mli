(** Ethernet II frames.

    Frames are the unit that travels on links and that the VirtualWire
    FIE/FAE classifies: filter-table offsets in FSL scripts are offsets into
    the serialized frame ([dst]@0, [src]@6, [ethertype]@12, payload from 14 —
    matching the paper's Figure 2/6 scripts).

    A frame crosses the simulated network as this value, so frames in
    flight are shared: by sender and receivers, every port of a flood and
    the trace. Never write into a [payload]; copy first ({!to_bytes},
    change the copy, {!of_bytes}), as MODIFY and link corruption do. *)

type t = {
  dst : Mac.t;
  src : Mac.t;
  ethertype : int; (* 16-bit *)
  payload : bytes;
}

val header_size : int
(** 14 bytes. *)

val ethertype_ipv4 : int (* 0x0800 *)
val ethertype_rether : int (* 0x9900, per the paper's Figure 6 filter table *)
val ethertype_rll : int (* 0x88B5: RLL encapsulation *)
val ethertype_vw_control : int (* 0x88B6: VirtualWire control plane *)

val make : dst:Mac.t -> src:Mac.t -> ethertype:int -> bytes -> t
val size : t -> int
(** Serialized size in bytes (header + payload; no FCS modeled). *)

val to_bytes : t -> bytes
val of_bytes : bytes -> t
(** @raise Invalid_argument if shorter than the header. *)

(** {2 Zero-copy field access}

    The classifier's filter-table offsets address the {e serialized} frame
    ([dst]@0, [src]@6, [ethertype]@12, payload from {!header_size}). These
    read that layout directly from the record, without the per-packet
    [to_bytes] allocation. *)

val read_window : t -> pos:int -> len:int -> int
(** Big-endian unsigned read of [len] bytes at [pos], unchecked, for a
    caller that has already bounded the window: [0 <= pos],
    [pos + len <= size t] and [0 <= len <= 7] (a zero-length window reads
    0). A window starting at or past {!header_size} is read straight from
    [payload]. Allocates nothing. *)

val field_matches :
  t ->
  pos:int ->
  pat:bytes ->
  pat_off:int ->
  pat_len:int ->
  mask:bytes ->
  mask_off:int ->
  mask_len:int ->
  bool
(** [Hexutil.masked_equal (to_bytes t) ~pos] without the copy, over pool
    slices: pattern and mask are windows into shared byte pools (the
    compiled filter table's), so the SoA hot path compares without
    materializing per-tuple [bytes]. [mask_len = 0] means unmasked; mask
    bytes beyond [mask_len] count as 0xff, exactly the short-mask rule of
    [Hexutil.masked_equal]. False (never an exception) if the window
    exceeds the frame. The pattern/mask slices must be in bounds
    (unchecked). *)

val pp : Format.formatter -> t -> unit
