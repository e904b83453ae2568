type t = { src_port : int; dst_port : int; payload : bytes }

let header_size = 8

let make ~src_port ~dst_port payload = { src_port; dst_port; payload }

(* the RFC 768/793 pseudo-header as big-endian 16-bit words: source and
   destination address halves, zero-padded protocol, length *)
let pseudo_header_sum ~(src : Ip_addr.t) ~(dst : Ip_addr.t) ~protocol ~length =
  let s = (src :> int) and d = (dst :> int) in
  (s lsr 16) + (s land 0xffff) + (d lsr 16) + (d land 0xffff) + protocol
  + (length land 0xffff)

let write_header b ~pos ~src ~dst ~src_port ~dst_port ~len =
  Bytes.set_uint16_be b pos (src_port land 0xffff);
  Bytes.set_uint16_be b (pos + 2) (dst_port land 0xffff);
  Bytes.set_uint16_be b (pos + 4) (len land 0xffff);
  Bytes.set_uint16_be b (pos + 6) 0;
  let pseudo = pseudo_header_sum ~src ~dst ~protocol:Ipv4.protocol_udp ~length:len in
  let csum = Vw_util.Checksum.finish (pseudo + Vw_util.Checksum.ones_sum b ~pos ~len) in
  let csum = if csum = 0 then 0xffff else csum in
  Bytes.set_uint16_be b (pos + 6) csum

let to_bytes ~src ~dst t =
  let len = header_size + Bytes.length t.payload in
  let b = Bytes.create len in
  Bytes.blit t.payload 0 b header_size (Bytes.length t.payload);
  write_header b ~pos:0 ~src ~dst ~src_port:t.src_port ~dst_port:t.dst_port ~len;
  b

let read ~src ~dst b ~pos ~len =
  if pos < 0 || len < header_size || pos + len > Bytes.length b then
    Error "udp: truncated header"
  else
    let ulen = Bytes.get_uint16_be b (pos + 4) in
    if ulen < header_size || ulen > len then Error "udp: bad length"
    else
      let wire_csum = Bytes.get_uint16_be b (pos + 6) in
      let csum_ok =
        wire_csum = 0
        ||
        let pseudo =
          pseudo_header_sum ~src ~dst ~protocol:Ipv4.protocol_udp ~length:ulen
        in
        Vw_util.Checksum.finish (pseudo + Vw_util.Checksum.ones_sum b ~pos ~len:ulen)
        = 0
      in
      if not csum_ok then Error "udp: checksum mismatch"
      else
        Ok
          {
            src_port = Bytes.get_uint16_be b pos;
            dst_port = Bytes.get_uint16_be b (pos + 2);
            payload = Bytes.sub b (pos + header_size) (ulen - header_size);
          }

let of_bytes ~src ~dst b = read ~src ~dst b ~pos:0 ~len:(Bytes.length b)

let pp ppf t =
  Format.fprintf ppf "[udp %d -> %d len=%d]" t.src_port t.dst_port
    (Bytes.length t.payload)
