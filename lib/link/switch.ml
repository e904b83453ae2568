type stats = {
  mutable forwarded : int;
  mutable flooded : int;
  mutable filtered : int;
}

type t = {
  engine : Vw_sim.Engine.t;
  mutable ports : Link.endpoint array;
  table : int Vw_util.Int_tbl.t; (* [(mac :> int)] → port *)
  stats : stats;
}

let processing_delay = Vw_sim.Simtime.us 2

let create engine =
  {
    engine;
    ports = [||];
    table = Vw_util.Int_tbl.create 16;
    stats = { forwarded = 0; flooded = 0; filtered = 0 };
  }

let emit t port_idx frame =
  Vw_sim.Engine.schedule_after t.engine ~delay:processing_delay (fun () ->
      Link.send t.ports.(port_idx) frame)

let flood t ~ingress frame =
  t.stats.flooded <- t.stats.flooded + 1;
  Array.iteri (fun i _ -> if i <> ingress then emit t i frame) t.ports

let handle_frame t ~ingress (frame : Vw_net.Eth.t) =
  Vw_util.Int_tbl.replace t.table (frame.src :> int) ingress;
  if Vw_net.Mac.is_broadcast frame.dst then flood t ~ingress frame
  else
    match Vw_util.Int_tbl.find t.table (frame.dst :> int) with
    | port when port = ingress -> t.stats.filtered <- t.stats.filtered + 1
    | port ->
        t.stats.forwarded <- t.stats.forwarded + 1;
        emit t port frame
    | exception Not_found -> flood t ~ingress frame

let attach t endpoint =
  let port = Array.length t.ports in
  t.ports <- Array.append t.ports [| endpoint |];
  Link.set_receive endpoint (fun frame -> handle_frame t ~ingress:port frame);
  port

let stats t = t.stats
