(** A shared half-duplex medium with simplified CSMA/CD.

    [n] endpoints share one channel (an Ethernet hub / coax segment). A
    sender that senses the carrier defers to the end of the ongoing
    transmission plus a small random jitter. A sender that starts before
    the ongoing transmission's signal has propagated to it collides with
    it: both frames die and both senders back off exponentially (slot
    51.2 µs, attempt capped at 16). The collided transmission's completion
    event stays queued but finds its frame's attempt count changed and does
    nothing. Delivered frames reach {e every other} endpoint, as on a real
    shared segment, each drawing {!Link}'s loss. Frames are
    {!Vw_net.Eth.t} values, shared by every receiver they reach. *)

type t
type endpoint

val create : Vw_sim.Engine.t -> Link.config -> n:int -> t
val endpoint : t -> int -> endpoint
val stats : t -> Media_stats.t
val send : endpoint -> Vw_net.Eth.t -> unit
val set_receive : endpoint -> (Vw_net.Eth.t -> unit) -> unit

val queue_length : endpoint -> int
(** Frames queued at this endpoint, including one in flight. *)
