(** Compiled form of a script's [CONFORM] section.

    The scenario compiles to the six tables ({!Tables}) exactly as before —
    conformance statements deliberately live outside [Tables.t] so the
    codec, digests and control-plane shipping are untouched. [compile]
    resolves the statement names against the already-compiled tables:
    filters become fids (and, for [INJECT], materialized frame bytes),
    nodes become nids, counters become cids, and times become simulation
    durations relative to workload start. *)

type window = {
  w_lo : Vw_sim.Simtime.t;
  w_hi : Vw_sim.Simtime.t;  (** [max_int] when unbounded above *)
}
(** [AT t WITHIN tol] → [t - tol, t + tol] (clamped at 0); [WITHIN tol]
    alone → [0, tol]; [AT t] alone → [t, ∞); neither → [None] (any
    time). *)

type expect_kind =
  | X_packet of {
      xp_fid : int;
      xp_from : int;
      xp_to : int;
      xp_dir : Ast.direction;
    }
  | X_state of { xs_cid : int; xs_op : Ast.relop; xs_value : int }

type expectation = {
  xid : int;  (** dense index, in section order *)
  x_label : string;  (** the statement's concrete syntax, for reports *)
  x_kind : expect_kind;
  x_window : window option;
}

type injection = {
  in_index : int;
  in_fid : int;
  in_from : int;
  in_to : int;
  in_at : Vw_sim.Simtime.t;  (** relative to workload start *)
  in_frame : bytes;  (** serialized Ethernet frame, ready to send *)
}

type t = { injections : injection list; expects : expectation list }

val empty : t

val compile : Tables.t -> Ast.conform_stmt list -> (t, string list) result
(** Resolve names and materialize injection frames. Errors are collected
    with positions, mirroring {!Compile}: unknown filter/node/counter
    names, [INJECT] over a filter with variable patterns (no bytes to
    materialize), or a negative window. *)
