(** Differential and invariant oracles over one executed {!Gen.case}.

    Each oracle is a named check of a property the system promises
    regardless of script or schedule:

    - [print_parse_fixpoint]: the serialized case re-parses to a script
      that prints identically;
    - [classifier_diff]: the engine's classifier,
      [Classifier.classify_frame_c] over [Tables.compile], agrees with
      [Classifier.classify_linear] on every captured frame;
    - [codec_roundtrip]: [Tables_codec] decode inverts encode and
      re-encoding is canonical;
    - [events_roundtrip]: the [vw-events/1] JSONL rendering reloads to the
      identical typed event list;
    - [coverage_live_offline]: coverage from live events equals coverage
      from the reloaded log;
    - [counter_consistency]: every node's final counter values equal the
      fold of its recorded [Counter_changed] deltas (counters only change
      via recorded events);
    - [reports_recorded]: a [Stopped] outcome implies a recorded STOP
      report within the time limit, and every scenario error has a matching
      [Report_raised];
    - [term_convergence]: after the drain, every live subscriber's view of
      a term equals its live owner's;
    - [conform_coverage]: every passing packet EXPECT of the case's
      CONFORM section implies its filter's [vw-cover/1] match count is
      positive — conformance verdicts and coverage are two views of one
      event stream and must agree.

    A {!defect} deliberately sabotages one oracle's subject — the fuzzer's
    self-check that a broken invariant is actually caught and shrunk. *)

type defect =
  | No_defect
  | Skip_index_bucket
      (** the compiled index loses its buckets, so a frame that selects
          one scans only the fallback filters *)
  | Codec_drop_action  (** decoded tables lose their last action *)
  | Events_drop_line  (** one event line vanishes before reload *)
  | Conform_zero_cover
      (** coverage forgets every filter match before the conformance
          cross-check *)

val defect_of_string : string -> (defect, string) result
val defect_to_string : defect -> string
val defect_names : string list

type failure = { oracle : string; detail : string }

val check : defect:defect -> Runner.outcome -> failure option
(** First failing oracle, in the order listed above. Oracles that need a
    complete event log ([counter_consistency], [reports_recorded]) are
    skipped when rings wrapped; [term_convergence] is skipped when the
    post-run drain hit its cap. *)
