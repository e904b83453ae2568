(** Conformance results, rendered: the [vw-conform/1] JSON summary and the
    human console report.

    Everything here is derived from index-order {!Driver.case_result}s and
    simulated time only — no wall-clock, no ordering dependence — so
    [vwctl conform] output is byte-identical at every [--jobs] level. *)

type xres = {
  xr_xid : int;
  xr_label : string;  (** the EXPECT statement, pretty-printed *)
  xr_status : string;  (** ["pass"] | ["tolerance_miss"] | ["missed"] *)
  xr_at_ms : float option;
      (** match time relative to the anchor, in simulated ms; [None] when
          the expectation never matched *)
  xr_diagnosis : string;  (** [""] on pass *)
}

type case = {
  cs_name : string;
  cs_ok : bool;
  cs_outcome : string;  (** the scenario outcome *)
  cs_truncated : bool;
  cs_expects : xres list;
}

val of_result : Driver.case_result -> case
val ok : case list -> bool
val summary_json : case list -> string
(** One [vw-conform/1] JSON document (trailing newline included). *)

val pp : Format.formatter -> case list -> unit
