(** A store-and-forward learning Ethernet switch.

    Hosts hang off the switch via point-to-point {!Link}s; the switch owns
    one endpoint of each. It learns source MACs per port, forwards known
    unicast destinations out the learned port, and floods unknown/broadcast
    destinations. Egress serialization and queueing are modeled by the
    egress link itself; the switch only adds a 2 µs processing delay.

    The paper's testbed is "2 Pentium-4 hosts connected using a 100 Mbps
    switch"; this module plus two links reproduces that topology. *)

type t

type stats = {
  mutable forwarded : int;
  mutable flooded : int;
  mutable filtered : int;  (** destination learned on the ingress port *)
}

val create : Vw_sim.Engine.t -> t

val attach : t -> Link.endpoint -> int
(** Hands a link endpoint to the switch; returns the port number. The switch
    installs its own receive callback on the endpoint. *)

val stats : t -> stats
