(** The programming front-end's runtime half (Section 5.1).

    The control node compiles the script (see {!Vw_fsl.Compile}), then this
    module ships the six tables to every node as INIT control frames,
    broadcasts START, and collects STOP/FLAG_ERROR reports. It drives its
    own co-located engine directly (loopback frames do not exist on a real
    LAN either). *)

type t

val create : Fie.t -> t
(** Attach to the control node's engine; registers the report handler. *)

val deploy : t -> Vw_fsl.Tables.t -> (unit, string) result
(** Initialize the local engine and send INIT to every other node in the
    table. Errors if this host is not in the node table. *)

val start : t -> unit
(** Fire START everywhere (locally first). *)

val errors : t -> (int * int) list
(** (node id, rule index) for each FLAG_ERROR received, oldest first.
    Rule index -1 denotes an engine-internal error (cascade overflow). *)

val on_stop : t -> (unit -> unit) -> unit
(** Callback when the first STOP report arrives (e.g. halt the simulation). *)
