(** A first-class network-interface handle: what a host's NIC plugs into.

    Both point-to-point link endpoints and shared-bus endpoints expose the
    same two capabilities — transmit a frame, and install the
    frame-arrival callback — so hosts stay agnostic of the medium. Frames
    cross it as the {!Vw_net.Eth.t} values the hosts hand over. *)

type t = {
  send : Vw_net.Eth.t -> unit;
  set_receive : (Vw_net.Eth.t -> unit) -> unit;
}

val of_link_endpoint : Link.endpoint -> t
val of_bus_endpoint : Bus.endpoint -> t
