(** Hash tables keyed by [int], for the lookups made once per frame.

    Every per-frame table is keyed by a machine word: ethertypes,
    protocol numbers, ports, sequence numbers, window values, and MAC and
    IP addresses, which are [private int] ([Vw_net.Mac.t],
    [Vw_net.Ip_addr.t]; key with [(mac :> int)]). Stdlib's polymorphic
    [Hashtbl] hashes each key through the C [caml_hash] and compares with
    the polymorphic [compare]; [Hashtbl.Make] calls its hash and equality
    through the functor argument. Here both are inline OCaml: a lookup is
    one multiply, an array load and int compares.

    The table indexes by the hash's low bits, so the hash carries every
    key bit into them: it folds the key's high half onto its low half,
    multiplies by an odd 64-bit constant and keeps the product from bit
    29 up, where the multiply has mixed every lower bit in. Keys that
    differ only in high bits (ports [0x1000], [0x2000]; [k lsl 44]) spread
    as consecutive keys do.

    A key is bound at most once: {!replace} is the only insertion.
    Iteration order follows the hash, so a caller that iterates into an
    output sorts first. *)

type 'a t

val create : int -> 'a t
(** [create n] is an empty table sized for about [n] bindings; it grows
    as [Hashtbl] does, doubling at two bindings per bucket. *)

val length : 'a t -> int
val find : 'a t -> int -> 'a
(** @raise Not_found if the key is unbound: a hit boxes nothing. *)

val find_opt : 'a t -> int -> 'a option
val mem : 'a t -> int -> bool

val replace : 'a t -> int -> 'a -> unit
(** Binds the key, replacing its binding if it has one. *)

val remove : 'a t -> int -> unit
val iter : (int -> 'a -> unit) -> 'a t -> unit
val fold : (int -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b

val stats : 'a t -> Hashtbl.statistics
(** Bindings, buckets and chain lengths, as [Hashtbl.stats] gives them. *)
