(** Seeded generation of well-typed FSL scripts plus traffic schedules.

    A {!case} is everything needed to reproduce one fuzz run: a script AST
    covering the whole action vocabulary of Tables I/II (counters, nested
    conditions, every fault primitive, FAIL/STOP/FLAG_ERROR, BIND_VAR), a
    set of UDP packet kinds the filters are written against, and a send
    schedule. Generation is a pure function of the seed; the serialized
    form ({!to_fsl}) is plain FSL with [# vw-fuzz:] header comments, so a
    failing case replays through the stock parser and [vwctl fuzz
    --replay]. *)

type send = {
  at_ms : int;  (** offset after the workload starts *)
  src : int;  (** node index *)
  dst : int;  (** node index, [<> src] *)
  kind : int;  (** packet kind index *)
  len : int;  (** UDP payload length *)
}

type case = {
  seed : int;
  script : Vw_fsl.Ast.script;
  kinds : (int * int) array;  (** kind -> (sport, dport) *)
  sends : send list;
  max_ms : int;  (** scenario wall limit *)
}

val generate : seed:int -> case
(** Deterministic: equal seeds yield structurally equal cases. The script
    always parses and compiles (checked by the [generates_valid] oracle). *)

val payload : kind:int -> len:int -> bytes
(** The UDP payload a send of this kind/length carries — deterministic so
    filters can (sometimes) match payload bytes. *)

type origin = { og_oracle : string; og_run_seed : int; og_case_index : int }
(** Provenance a saved reproducer carries in its header: the oracle that
    failed, the campaign's run seed and the case's index within it — the
    same fields its [vw-failures/1] journal record holds, so a [.fsl] file
    found in a corpus is self-describing. *)

val to_fsl : ?origin:origin -> case -> string
(** Replayable form: [# vw-fuzz:] metadata comments followed by the script
    in concrete FSL syntax. With [origin], two extra header directives
    ([oracle …] and [run_seed … case_index …]) record where the case came
    from. *)

val of_fsl : string -> (case, string) result
(** Parse {!to_fsl} output (metadata comments + FSL). Origin directives
    are tolerated and ignored — replay does not depend on provenance. *)

val origin_of_fsl : string -> origin option
(** The provenance header of a saved reproducer, when present. *)

val size : case -> int
(** Shrinking metric: rules + actions + filters + counters + nodes +
    sends. *)
