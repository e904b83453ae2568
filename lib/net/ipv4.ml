type t = {
  tos : int;
  ttl : int;
  protocol : int;
  ident : int;
  src : Ip_addr.t;
  dst : Ip_addr.t;
  payload : bytes;
}

let header_size = 20
let protocol_udp = 17
let protocol_tcp = 6

let make ?(tos = 0) ?(ttl = 64) ?(ident = 0) ~protocol ~src ~dst payload =
  { tos; ttl; protocol; ident; src; dst; payload }

let write_header b ~pos ~tos ~ttl ~ident ~protocol ~src ~dst ~len =
  Bytes.set b pos '\x45' (* version 4, IHL 5 *);
  Bytes.set b (pos + 1) (Char.chr (tos land 0xff));
  Bytes.set_uint16_be b (pos + 2) (len land 0xffff);
  Bytes.set_uint16_be b (pos + 4) (ident land 0xffff);
  Bytes.set_uint16_be b (pos + 6) 0 (* flags/fragment *);
  Bytes.set b (pos + 8) (Char.chr (ttl land 0xff));
  Bytes.set b (pos + 9) (Char.chr (protocol land 0xff));
  Bytes.set_uint16_be b (pos + 10) 0 (* checksum placeholder *);
  Bytes.set_int32_be b (pos + 12) (Int32.of_int (src : Ip_addr.t :> int));
  Bytes.set_int32_be b (pos + 16) (Int32.of_int (dst : Ip_addr.t :> int));
  let csum = Vw_util.Checksum.checksum b ~pos ~len:header_size in
  Bytes.set_uint16_be b (pos + 10) csum

let to_bytes t =
  let len = header_size + Bytes.length t.payload in
  let b = Bytes.create len in
  write_header b ~pos:0 ~tos:t.tos ~ttl:t.ttl ~ident:t.ident ~protocol:t.protocol
    ~src:t.src ~dst:t.dst ~len;
  Bytes.blit t.payload 0 b header_size (Bytes.length t.payload);
  b

let read b ~pos ~len =
  if pos < 0 || len < header_size || pos + len > Bytes.length b then
    Error "ipv4: truncated header"
  else
    let vihl = Char.code (Bytes.get b pos) in
    if vihl <> 0x45 then
      Error (Printf.sprintf "ipv4: unsupported version/IHL 0x%02x" vihl)
    else if not (Vw_util.Checksum.is_valid b ~pos ~len:header_size) then
      Error "ipv4: header checksum mismatch"
    else
      let total = Bytes.get_uint16_be b (pos + 2) in
      if total < header_size || total > len then Error "ipv4: bad total length"
      else Ok total

let protocol_at b ~pos = Char.code (Bytes.get b (pos + 9))
let src_at b ~pos = Ip_addr.of_bytes b ~pos:(pos + 12)

let dst_is b ~pos (ip : Ip_addr.t) =
  Int32.to_int (Bytes.get_int32_be b (pos + 16)) land 0xffff_ffff = (ip :> int)

let of_bytes b =
  match read b ~pos:0 ~len:(Bytes.length b) with
  | Error _ as e -> e
  | Ok total ->
      Ok
        {
          tos = Char.code (Bytes.get b 1);
          ttl = Char.code (Bytes.get b 8);
          protocol = protocol_at b ~pos:0;
          ident = Bytes.get_uint16_be b 4;
          src = src_at b ~pos:0;
          dst = Ip_addr.of_bytes b ~pos:16;
          payload = Bytes.sub b header_size (total - header_size);
        }

let pp ppf t =
  Format.fprintf ppf "[ipv4 %a -> %a proto=%d len=%d]" Ip_addr.pp t.src
    Ip_addr.pp t.dst t.protocol (Bytes.length t.payload)
