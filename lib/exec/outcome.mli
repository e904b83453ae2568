(** What a finished job reports back to the reducer.

    An outcome is the only thing that crosses back from a worker domain to
    the main domain: the job's index in its plan, a verdict, and the typed
    payload the job computed (scenario result, fuzz-case analysis, bench
    trial, …). Everything a campaign surface prints or writes is derived
    from outcomes folded in {e plan order} — never completion order — which
    is what makes [--jobs 1] and [--jobs N] output byte-identical. *)

type verdict =
  | Pass
  | Fail
  | Crash of string
      (** the job raised; the payload is [None] and the string is the
          exception ([Printexc.to_string]) *)

type 'a t = {
  index : int;  (** position in the plan that produced this outcome *)
  label : string;
  verdict : verdict;
  payload : 'a option;  (** [None] only when the job crashed *)
}

val passed : _ t -> bool
(** [true] iff the verdict is [Pass]. *)

val verdict_name : verdict -> string
(** ["pass"], ["fail"] or ["crash"]. *)
