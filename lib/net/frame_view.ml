type transport =
  | Udp_view of Udp.t
  | Tcp_view of Tcp_segment.t
  | Opaque of int * bytes

type content =
  | Ip of Ipv4.t * transport
  | Rether of int * bytes
  | Raw of bytes
  | Bad_ip of string

type t = { eth : Eth.t; content : content }

let decode_transport (ip : Ipv4.t) =
  if ip.protocol = Ipv4.protocol_udp then
    match Udp.of_bytes ~src:ip.src ~dst:ip.dst ip.payload with
    | Ok u -> Udp_view u
    | Error _ -> Opaque (ip.protocol, ip.payload)
  else if ip.protocol = Ipv4.protocol_tcp then
    match Tcp_segment.of_bytes ~src:ip.src ~dst:ip.dst ip.payload with
    | Ok seg -> Tcp_view seg
    | Error _ -> Opaque (ip.protocol, ip.payload)
  else Opaque (ip.protocol, ip.payload)

let of_frame (eth : Eth.t) =
  let content =
    if eth.ethertype = Eth.ethertype_ipv4 then
      match Ipv4.of_bytes eth.payload with
      | Ok ip -> Ip (ip, decode_transport ip)
      | Error e -> Bad_ip e
    else if eth.ethertype = Eth.ethertype_rether then
      if Bytes.length eth.payload >= 2 then
        Rether
          ( Bytes.get_uint16_be eth.payload 0,
            Bytes.sub eth.payload 2 (Bytes.length eth.payload - 2) )
      else Raw eth.payload
    else Raw eth.payload
  in
  { eth; content }

let describe t =
  let b = Buffer.create 64 in
  let ppf = Format.formatter_of_buffer b in
  Format.fprintf ppf "%a " Eth.pp t.eth;
  (match t.content with
  | Ip (ip, tr) -> (
      Format.fprintf ppf "%a " Ipv4.pp ip;
      match tr with
      | Udp_view u -> Format.fprintf ppf "%a" Udp.pp u
      | Tcp_view seg -> Format.fprintf ppf "%a" Tcp_segment.pp seg
      | Opaque (proto, payload) ->
          Format.fprintf ppf "[proto=%d len=%d]" proto (Bytes.length payload))
  | Rether (op, rest) ->
      Format.fprintf ppf "[rether op=0x%04x len=%d]" op (Bytes.length rest)
  | Raw payload -> Format.fprintf ppf "[raw len=%d]" (Bytes.length payload)
  | Bad_ip e -> Format.fprintf ppf "[bad-ip: %s]" e);
  Format.pp_print_flush ppf ();
  Buffer.contents b
