type t = {
  send : Vw_net.Eth.t -> unit;
  set_receive : (Vw_net.Eth.t -> unit) -> unit;
}

let of_link_endpoint ep =
  { send = Link.send ep; set_receive = Link.set_receive ep }

let of_bus_endpoint ep = { send = Bus.send ep; set_receive = Bus.set_receive ep }
