(** A minimal JSON reader (plus the string escaper the tool's JSON
    writers share), just enough to make the tool's own output
    schemas ([vw-events/1], [vw-metrics/1], [vw-bench-micro/1], the Chrome
    trace-event format) first-class {e inputs}: the run-analysis layer can
    consume a saved [--events] file exactly as it consumes a live recorder.

    Self-contained on purpose — the repository carries no JSON dependency,
    and the subset here (objects, arrays, strings with escapes, ints,
    floats, booleans, null) is the whole of what those schemas use. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** Parse one JSON document; the error carries a byte offset. Trailing
    whitespace is allowed, trailing garbage is not. Arrays and objects
    nested deeper than 512 levels are an error. *)

val parse_exn : string -> t
(** @raise Failure on malformed input. *)

(** {1 Accessors} — total lookups returning [option] *)

val mem : string -> t -> t option
(** Object member; [None] on missing key or non-object. *)

val to_int : t -> int option
(** [Int] directly; a [Float] with integral value also converts. *)

val to_float : t -> float option
val to_string : t -> string option
val to_bool : t -> bool option
val to_list : t -> t list option
val obj_keys : t -> string list
(** Keys of an object in source order, [[]] for non-objects. *)

(** {1 Writing} *)

val escape : string -> string
(** [escape s] is the body of a JSON string literal for [s], without
    the quotes: a quote or backslash gets a backslash, a byte below 0x20
    becomes [\u00XX], every other byte is copied. The one escaper of the
    report, journal, campaign and conformance JSON writers
    ([Vw_obs.Event] keeps its own, whose short [\n]/[\r]/[\t] escapes
    vw-events/1 fixes). *)
