(** Frame accounting shared by all physical-layer media (links, buses). *)

type t = {
  mutable sent : int;  (** frames accepted into a transmit queue *)
  mutable delivered : int;
  mutable dropped_loss : int;  (** random loss (models MAC bit errors) *)
  mutable dropped_queue : int;  (** transmit-queue overflow (tail drop) *)
  mutable dropped_collision : int;
      (** bus frames abandoned after 16 collided attempts; a collision the
          frame survives by backing off is not counted *)
}

val create : unit -> t
