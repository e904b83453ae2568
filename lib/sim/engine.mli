(** The discrete-event simulation engine.

    A single engine drives one testbed: links, hosts, protocol timers and
    the VirtualWire FIE/FAE all schedule callbacks here. Execution is
    single-threaded and deterministic: events at equal timestamps run in
    scheduling order.

    A scheduled callback cannot be withdrawn. A caller that may need to
    abandon one makes the callback check the caller's own state and do
    nothing: [Vw_stack.Host.set_timer] keeps a [cancelled] flag, and
    [Vw_link.Bus] drops the completion of a collided transmission this
    way. Such a no-op still pops at its scheduled time: {!pending} counts
    it until then, and it can move {!now} past the last callback that did
    work only when it is the last queued event of a [run] without
    [until]. *)

type t

val create : ?seed:int -> unit -> t
(** [create ?seed ()] makes an engine whose root PRNG is seeded with [seed]
    (default 42); components derive their own streams via [prng]. *)

val now : t -> Simtime.t
(** Current simulated time. *)

val prng : t -> Vw_util.Prng.t
(** Derives a fresh independent PRNG stream from the engine's root. *)

val schedule_at : t -> time:Simtime.t -> (unit -> unit) -> unit
(** Schedule a callback at an absolute time. Times in the past run "now"
    (at the current instant, after already-queued events for that instant). *)

val schedule_after : t -> delay:Simtime.t -> (unit -> unit) -> unit
(** Schedule relative to [now]. Negative delays are clamped to zero. *)

val run : ?until:Simtime.t -> t -> unit
(** [run t] processes events until the queue is empty or [until] is
    reached (events strictly after [until] stay queued; [now] advances to
    [until]). Exceptions from callbacks propagate and abort the run. *)

val step : t -> bool
(** Run a single event; [false] if the queue was empty. *)

val pending : t -> int
(** Number of scheduled events that have not run yet. *)

val stop : t -> unit
(** Request that [run] return after the current callback; used by the STOP
    action and scenario timeouts. *)

val stop_requested : t -> bool
(** Whether a {!stop} is pending — i.e. [run] will return before the next
    queued event. Callers feeding frames in a loop poll this between
    frames so a STOP cuts the feed short exactly where it would have cut
    the event stream. *)
