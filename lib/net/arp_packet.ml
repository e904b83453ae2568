type op = Request | Reply

type t = {
  op : op;
  sender_mac : Mac.t;
  sender_ip : Ip_addr.t;
  target_mac : Mac.t;
  target_ip : Ip_addr.t;
}

let ethertype = 0x0806
let size = 28

let to_bytes t =
  let b = Bytes.create size in
  Vw_util.Hexutil.set_int_be b ~pos:0 ~len:2 1 (* htype: Ethernet *);
  Vw_util.Hexutil.set_int_be b ~pos:2 ~len:2 0x0800 (* ptype: IPv4 *);
  Bytes.set b 4 '\x06' (* hlen *);
  Bytes.set b 5 '\x04' (* plen *);
  Vw_util.Hexutil.set_int_be b ~pos:6 ~len:2
    (match t.op with Request -> 1 | Reply -> 2);
  Mac.write t.sender_mac b ~pos:8;
  Ip_addr.write t.sender_ip b ~pos:14;
  Mac.write t.target_mac b ~pos:18;
  Ip_addr.write t.target_ip b ~pos:24;
  b

let of_bytes b =
  if Bytes.length b < size then Error "arp: truncated"
  else if Vw_util.Hexutil.to_int_be b ~pos:0 ~len:2 <> 1 then
    Error "arp: not Ethernet"
  else if Vw_util.Hexutil.to_int_be b ~pos:2 ~len:2 <> 0x0800 then
    Error "arp: not IPv4"
  else
    match Vw_util.Hexutil.to_int_be b ~pos:6 ~len:2 with
    | (1 | 2) as op ->
        Ok
          {
            op = (if op = 1 then Request else Reply);
            sender_mac = Mac.of_bytes b ~pos:8;
            sender_ip = Ip_addr.of_bytes b ~pos:14;
            target_mac = Mac.of_bytes b ~pos:18;
            target_ip = Ip_addr.of_bytes b ~pos:24;
          }
    | op -> Error (Printf.sprintf "arp: bad operation %d" op)
