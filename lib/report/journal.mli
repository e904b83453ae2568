(** The append-only failure journal (schema [vw-failures/1]).

    A fault-injection tool earns its keep over thousands of runs, not one:
    the journal is what remembers failures across them. Every Fail/Crash
    outcome of a campaign command ([vwctl fuzz], [vwctl suite], [vwctl run
    --repeat]) appends one JSON line describing {e what} failed — the
    oracle (or expectation) that tripped, the seed that reproduces it, the
    shrunk reproducer when one was saved — and a stable {e signature}
    under which recurrences of the same defect cluster, however many
    distinct seeds hit it.

    The journal is JSONL with no header so independent runs can append
    concurrently-in-time (never concurrently-in-process); every line is a
    self-contained record carrying its own [schema] tag. Records contain
    no wall-clock time: a campaign re-run with the same configuration
    appends byte-identical lines, which is also why journal writes do not
    break the executor's jobs-independence contract — records are emitted
    from the reduced result list, in index order. *)

type record = {
  r_command : string;  (** producing campaign: "fuzz", "suite", "run" *)
  r_case : string;  (** case/trial label within the campaign *)
  r_index : int;  (** index of the failing case *)
  r_oracle : string;
      (** the failing fuzz oracle, or "expect_mismatch" / "worker_crash" /
          "script_error" for suite and repeat campaigns *)
  r_seed : int;  (** the seed that reproduces this exact case *)
  r_run_seed : int option;  (** the campaign's base seed, when distinct *)
  r_signature : string;  (** {!signature_of} — the clustering key *)
  r_detail : string;  (** raw first-line diagnosis, un-normalized *)
  r_repro : string option;  (** path to the (shrunk) reproducer file *)
  r_sim_s : float option;  (** simulated seconds the case consumed *)
  r_tables_digest : string;
      (** hex digest of the compiled tables image ({!digest_of_tables});
          "" when the script never compiled *)
}

val v :
  ?run_seed:int ->
  ?repro:string ->
  ?sim_s:float ->
  ?tables_digest:string ->
  command:string ->
  case:string ->
  index:int ->
  oracle:string ->
  seed:int ->
  detail:string ->
  unit ->
  record
(** Builds a record; the signature is computed from [oracle] and [detail]
    via {!signature_of}. [detail] is truncated to its first line. *)

(** {1 Signatures} *)

val normalize : string -> string
(** The diagnosis normalizer behind {!signature_of}: every maximal run of
    decimal digits becomes ["#"], so seeds, counts, offsets and sim-times
    embedded in a diagnosis do not split one defect into many
    signatures. *)

val exn_constructor : string -> string
(** ["Failure(\"boo\")"] → ["Failure"]: the leading constructor of a
    [Printexc.to_string] rendering, for crash records — the argument is
    noise, the constructor is the failure mode. *)

val signature_of : oracle:string -> diagnosis:string -> string
(** The stable clustering key: 12 hex chars of a digest over
    [oracle ^ normalize diagnosis]. Callers hash the {e furthest-stage}
    diagnosis they have — an oracle's detail line, a suite case's
    outcome summary, or {!exn_constructor} of a crash message. *)

val digest_of_tables : Vw_fsl.Tables.t -> string
(** Hex digest of the canonical [Tables_codec] image — identifies the
    compiled script version a failure was observed against (comment and
    whitespace edits do not change it). *)

(** {1 Serialization} *)

val to_json : record -> string
(** One [vw-failures/1] JSON line, newline-terminated. *)

val of_json : Json.t -> (record, string) result

val append : string -> record list -> (unit, string) result
(** Append records to the journal at [path], creating it if missing. *)

val load : string -> (record list, string) result
(** Read a journal back; [Error] names the first malformed line. A
    missing file is an error — callers that treat absence as empty test
    [Sys.file_exists] first. *)
