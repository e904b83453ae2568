(** A priority queue of timestamped events with stable FIFO tie-breaking.

    Events scheduled for the same instant fire in insertion order, which
    keeps simulations deterministic — the engine's cascade (packet arrival →
    counter update → control message) frequently schedules several events at
    the same nanosecond. There is no cancellation: a caller that may need to
    abandon an event makes its payload check its own state when it runs. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val push : 'a t -> time:Simtime.t -> 'a -> unit

val pop : 'a t -> (Simtime.t * 'a) option
(** Removes and returns the earliest event. *)

val peek_time : 'a t -> Simtime.t option
