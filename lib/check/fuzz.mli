(** The fuzz campaign driver behind [vwctl fuzz].

    Run [runs] generated cases (case [i] uses seed [seed + i]), stop at the
    first oracle failure, optionally shrink it, and print a deterministic
    report: same configuration, byte-for-byte same output — the property CI
    checks by diffing two invocations. With [jobs > 1] the seed space is
    sharded across that many domains, spawned for the campaign by
    {!Vw_exec.Executor.map} and joined before it returns; the report is
    reduced in run order (the failure reported is the {e earliest} failing
    index, not the first to complete) and is byte-identical to [jobs = 1].
    Shrinking always runs as a single job on the calling domain. A worker
    that raises is reported as that case failing the ["worker_crash"]
    oracle, with its case seed in the replay hint — it never aborts the
    campaign. *)

type config = {
  runs : int;
  seed : int;
  shrink : bool;
  save_failing : string option;  (** directory for reproducer files *)
  defect : Oracles.defect;
  progress_every : int;  (** 0 silences progress lines *)
  jobs : int;
      (** domains the campaign runs on, the calling one included; 1 = the
          calling domain alone. Not clamped to the core count: the CLI
          does that where [--jobs] enters. *)
  chunk : int option;
      (** cases claimed per worker draw; [None] = auto-tuned
          ({!Vw_exec.Executor.auto_chunk}). Pure scheduling knob: output
          is identical at any value. *)
  journal : string option;
      (** failure journal ([vw-failures/1] JSONL) to append each found
          failure to. Records carry no wall-clock fields and are appended
          after reduction, so the journal is byte-identical at every
          [jobs] level. *)
}

val default_config : config
(** 200 runs, seed {!Vw_util.Prng.run_seed}, no shrinking, no defect,
    progress every 50 runs, [jobs = 1], auto chunk, no journal. *)

type found = {
  run_index : int;
  case_seed : int;
  case : Gen.case;
  failure : Oracles.failure;
  minimized : Gen.case option;
  shrink_runs : int;
  sim_s : float option;  (** simulated seconds the failing case ran *)
  tables_digest : string;  (** digest of its compiled tables; "" if none *)
}

type summary = { runs_done : int; found : found option }

val execute : ?ppf:Format.formatter -> config -> (summary, string) result
(** Runs the campaign, printing progress, the final tally and (on failure)
    the replayable original and minimized scripts to [ppf] (default
    [Format.std_formatter]). [Error] when [save_failing] is set and the
    reproducer directory or a file in it cannot be written; the failure
    has been printed by then, but not journaled. *)

val replay :
  ?ppf:Format.formatter ->
  ?journal:string ->
  defect:Oracles.defect ->
  shrink:bool ->
  string ->
  (summary, string) result
(** [replay path] re-runs one saved reproducer file ({!Gen.to_fsl}
    format), printing its {!Gen.origin} header when it has one. With
    [journal], a failing replay appends a [command = "replay"] record. *)

val replay_dir :
  ?ppf:Format.formatter ->
  ?journal:string ->
  defect:Oracles.defect ->
  shrink:bool ->
  string ->
  (summary, string) result
(** [replay_dir dir] replays every [.fsl] file in [dir] in name order —
    how CI replays the promoted [test/regression/] corpus. [Error] if the
    directory is unreadable or holds no reproducers; otherwise
    [runs_done] counts the files and [found] is the {e first} failing
    one (so {!exit_code} reports 2 when any reproducer still fails). *)

val exit_code : summary -> int
(** 0 when no failure was found, 2 otherwise. *)
