(** Scenario generation from protocol expectations.

    The paper closes with: "as a long term goal ... it will be interesting
    to investigate the possibility of generating the fault injection and
    packet trace analysis scripts directly from the protocol
    specification." This module is that idea in miniature: describe the
    packets a protocol exchanges, the faults to inject, and the bounds its
    responses must respect — and get a complete FSL script, ready for
    {!Vw_fsl.Compile} and {!Vw_core.Scenario}.

    The generator is deliberately conservative: it emits exactly the rule
    shapes the paper's hand-written scripts use (enable-at-start counters,
    re-arming resets, windowed faults, FLAG_ERROR bounds, a STOP
    conjunction), so generated scripts read like the Figures.

    Only tests and an example call it; it stays as the paper's closing
    goal. *)

type packet = {
  filter : string;  (** a name from [filters] *)
  from_node : string;
  to_node : string;
  dir : [ `Send | `Recv ];  (** observation point *)
}

type expectation =
  | At_least of packet * int
      (** the scenario only STOPs once this count is reached; with an
          inactivity timeout, not reaching it is a failure *)
  | At_most of packet * int  (** exceeding [n] flags an error *)
  | Exactly of packet * int  (** both of the above *)
  | After of packet * int * packet * int
      (** [After (p, n, q, m)]: once [p] has been seen [n] times, [q] must
          subsequently be seen [m] times (counted from that moment) for the
          scenario to STOP — the causality shape of the Figure 6 script *)

type fault =
  | Drop_window of packet * int * int
      (** [Drop_window (p, lo, hi)]: drop occurrences [lo+1 .. hi] of [p]
          (the Figure 5 "drop the first SYNACK" is [Drop_window (p, 0, 1)]) *)
  | Delay_from of packet * int * float
      (** delay every occurrence after the [n]th by the given seconds *)
  | Duplicate_at of packet * int  (** duplicate exactly the [n]th occurrence *)
  | Corrupt_at of packet * int  (** randomly corrupt the [n]th occurrence *)
  | Crash_when of packet * int * string
      (** FAIL the named node when [p]'s count reaches [n] *)

type t

val create :
  name:string ->
  ?inactivity_timeout:float ->
  filters:(string * string) list ->
  nodes:(string * string * string) list ->
  unit ->
  t
(** [filters] are (name, tuple-list-text) pairs, e.g.
    [("udp_ping", "(34 2 0x1388), (36 2 0x1389)")]; [nodes] are
    (name, mac, ip) triples. *)

val inject : t -> fault -> unit
val expect : t -> expectation -> unit

val to_script : t -> string
(** Render the FSL script. Counters are shared between expectations and
    faults that watch the same packets. With no [At_least]/[Exactly]/
    [After] expectation, no STOP rule is emitted (the scenario runs to its
    time budget, like the paper's Figure 5). *)

val generate :
  t -> (Vw_fsl.Tables.t, string) result
(** [to_script] followed by {!Vw_fsl.Compile.parse_and_compile} — the
    generated text must always compile; an [Error] here is a generator
    bug. *)
