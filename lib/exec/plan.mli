(** An ordered list of jobs.

    The order is the plan's contract: reducers fold outcomes by plan index,
    so two executions of the same plan — at any [--jobs] level — yield the
    same reduced output. *)

type 'a t

val of_list : 'a Job.t list -> 'a t
val init : int -> (int -> 'a Job.t) -> 'a t
val length : _ t -> int

val job : 'a t -> int -> 'a Job.t
(** @raise Invalid_argument when the index is out of bounds. *)
