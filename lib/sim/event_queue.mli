(** A priority queue of timestamped events with stable FIFO tie-breaking.

    Events scheduled for the same instant fire in insertion order, which
    keeps simulations deterministic — the engine's cascade (packet arrival →
    counter update → control message) frequently schedules several events at
    the same nanosecond. There is no cancellation: a caller that may need to
    abandon an event makes its payload check its own state when it runs.

    Pushing and taking allocate nothing once the queue has grown to its
    deepest size; a taken event's payload is no longer referenced. *)

type 'a t

val create : dummy:'a -> unit -> 'a t
(** [dummy] fills the payload cells that hold no queued event. *)

val length : 'a t -> int
val push : 'a t -> time:Simtime.t -> 'a -> unit

val top_time : 'a t -> Simtime.t
(** The earliest event's time.
    @raise Invalid_argument if the queue is empty. *)

val take : 'a t -> 'a
(** Removes the earliest event and returns its payload.
    @raise Invalid_argument if the queue is empty. *)
