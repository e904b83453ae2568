(** Read a saved event log back into typed {!Vw_obs.Event.t}s, making the
    file formats real interchange formats: every analysis in this library
    ({!Coverage}, {!Spans}, {!Html_report}) accepts a log loaded here
    exactly as it accepts [Testbed.events] from a live run.

    Both schemas decode to the same events: [vw-events/1] JSON Lines and
    the [vw-events/2] binary flight-recorder format ({!Vw_obs.Binlog}),
    told apart by sniffing the 6-byte [VWEV2] magic. *)

type header = {
  scenario : string;
  recorded : int;  (** events emitted during the run (retained + dropped) *)
  dropped : int;  (** events overwritten by ring wrap-around *)
}

val of_string : string -> (header option * Vw_obs.Event.t list, string) result
(** Parse a whole document in either format. Binary logs (leading [VWEV2]
    magic) always carry a header; for JSONL a leading header object (the
    one carrying ["schema"]) is returned separately, a JSONL header with a
    schema other than [vw-events/1] is an error (binary logs are never
    JSONL), as is any undecodable line or record. Blank lines are skipped.
    Events are returned sorted by [seq]. *)

val load : string -> (header option * Vw_obs.Event.t list, string) result
(** [of_string] over a file's contents, read to end of file, so a pipe
    such as [/dev/stdin] works; I/O errors (a directory among them) become
    [Error]. *)
