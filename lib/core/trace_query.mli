(** Declarative queries over a captured {!Trace} — the offline complement
    to the FAE's online rules.

    The paper's motivation recounts "collecting tcpdump traces and
    inspecting them manually or through some simple test-case specific
    filter programs". Online FSL rules remove most of that need; these
    combinators cover the rest: after a run, assert ordering, causality and
    timing properties over the capture without writing loops.

    Only tests call it; it stays as the paper's tcpdump replacement. *)

type pred
(** A predicate over one trace entry. *)

val where :
  ?node:string ->
  ?dir:[ `In | `Out ] ->
  ?after:Vw_sim.Simtime.t ->
  ?before:Vw_sim.Simtime.t ->
  (Vw_net.Frame_view.t -> bool) ->
  pred
(** Match entries captured at [node], in direction [dir], strictly after
    [after] and at-or-before [before], whose decoded frame satisfies the
    function. Omitted filters match anything. *)

val any : pred
val matches : pred -> Trace.entry -> bool

(** {1 Frame-content helpers} (compose with {!where}) *)

val tcp_where : (Vw_net.Tcp_segment.t -> bool) -> Vw_net.Frame_view.t -> bool
val udp_where : (Vw_net.Udp.t -> bool) -> Vw_net.Frame_view.t -> bool
val rether_opcode : int -> Vw_net.Frame_view.t -> bool
val ethertype : int -> Vw_net.Frame_view.t -> bool

(** {1 Queries} *)

val count : Trace.t -> pred -> int
val exists : Trace.t -> pred -> bool
val first : Trace.t -> pred -> Trace.entry option
val last : Trace.t -> pred -> Trace.entry option

val in_order : Trace.t -> pred list -> bool
(** The predicates match some (not necessarily adjacent) subsequence of the
    trace, in order — "a SYN, then a SYNACK, then an ACK happened". An
    empty list is trivially true. *)

val never_after : Trace.t -> cause:pred -> banned:pred -> bool
(** No [banned] entry at or after the first [cause] entry; [true] when
    [cause] never matches. *)

val within :
  Trace.t -> cause:pred -> effect_:pred -> window:Vw_sim.Simtime.t -> bool
(** Every [cause] entry is followed by an [effect_] entry no later than
    [window] after it — the "recovery must complete within 1 sec" shape of
    the Figure 6 scenario, checked offline. *)

val max_gap : Trace.t -> pred -> Vw_sim.Simtime.t option
(** The largest time gap between consecutive matching entries ([None] with
    fewer than two matches) — liveness/starvation checks. *)
