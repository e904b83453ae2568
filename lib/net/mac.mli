(** 48-bit Ethernet MAC addresses.

    The FSL node table maps host names to MAC + IP (paper Figure 2); MACs are
    the identity the engines use when matching a packet's endpoints. *)

type t = private int
(** The 48 bits as an immediate int, in wire order: the first octet is
    bits 40–47 ([02:00:00:00:00:01] is [0x020000000001]). A MAC is a
    machine word, so frames carry it without a pointer, [equal] and
    [compare] are int operations, and an {!Vw_util.Int_tbl} keys on
    [(mac :> int)]. The int order is the order of the six bytes compared
    left to right, so {!compare} (and the polymorphic [compare]) order
    MACs as [String.compare] orders their wire forms. *)

val of_string : string -> t
(** Parses ["00:46:61:af:fe:23"] (case-insensitive).
    @raise Invalid_argument on malformed input. *)

val to_string : t -> string

val of_bytes : bytes -> pos:int -> t
(** The six bytes at [pos]. @raise Invalid_argument if they exceed [b]. *)

val write : t -> bytes -> pos:int -> unit
(** Writes the six bytes at [pos]. @raise Invalid_argument if they exceed
    [b]. *)

val get_byte : t -> int -> int
(** Octet [i] (0–5) of the address, without serializing.
    @raise Invalid_argument if [i] is out of range. *)

val broadcast : t
val is_broadcast : t -> bool

val of_int : int -> t
(** [of_int n] is a locally-administered address derived from [n]; handy for
    generating distinct testbed MACs ([02:00:00:xx:xx:xx]). *)

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit
