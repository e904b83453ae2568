type flags = {
  fin : bool;
  syn : bool;
  rst : bool;
  psh : bool;
  ack : bool;
  urg : bool;
}

let no_flags =
  { fin = false; syn = false; rst = false; psh = false; ack = false; urg = false }

type t = {
  src_port : int;
  dst_port : int;
  seq : int;
  ack_seq : int;
  flags : flags;
  window : int;
  payload : bytes;
}

let header_size = 20

let make ?(seq = 0) ?(ack_seq = 0) ?(flags = no_flags) ?(window = 65535)
    ~src_port ~dst_port payload =
  { src_port; dst_port; seq; ack_seq; flags; window; payload }

let flags_byte f =
  (if f.fin then 0x01 else 0)
  lor (if f.syn then 0x02 else 0)
  lor (if f.rst then 0x04 else 0)
  lor (if f.psh then 0x08 else 0)
  lor (if f.ack then 0x10 else 0)
  lor if f.urg then 0x20 else 0

let flags_of_byte v =
  {
    fin = v land 0x01 <> 0;
    syn = v land 0x02 <> 0;
    rst = v land 0x04 <> 0;
    psh = v land 0x08 <> 0;
    ack = v land 0x10 <> 0;
    urg = v land 0x20 <> 0;
  }

let mask32 = 0xFFFFFFFF

let write_header b ~pos ~src ~dst ~src_port ~dst_port ~seq ~ack_seq ~flags
    ~window ~len =
  Bytes.set_uint16_be b pos (src_port land 0xffff);
  Bytes.set_uint16_be b (pos + 2) (dst_port land 0xffff);
  Bytes.set_int32_be b (pos + 4) (Int32.of_int seq);
  Bytes.set_int32_be b (pos + 8) (Int32.of_int ack_seq);
  Bytes.set b (pos + 12) '\x50' (* data offset 5 words *);
  Bytes.set b (pos + 13) (Char.chr (flags_byte flags));
  Bytes.set_uint16_be b (pos + 14) (window land 0xffff);
  Bytes.set_uint16_be b (pos + 16) 0 (* checksum placeholder *);
  Bytes.set_uint16_be b (pos + 18) 0 (* urgent pointer *);
  let pseudo =
    Udp.pseudo_header_sum ~src ~dst ~protocol:Ipv4.protocol_tcp ~length:len
  in
  let csum = Vw_util.Checksum.finish (pseudo + Vw_util.Checksum.ones_sum b ~pos ~len) in
  Bytes.set_uint16_be b (pos + 16) csum

let to_bytes ~src ~dst t =
  let len = header_size + Bytes.length t.payload in
  let b = Bytes.create len in
  Bytes.blit t.payload 0 b header_size (Bytes.length t.payload);
  write_header b ~pos:0 ~src ~dst ~src_port:t.src_port ~dst_port:t.dst_port
    ~seq:t.seq ~ack_seq:t.ack_seq ~flags:t.flags ~window:t.window ~len;
  b

let read ~src ~dst b ~pos ~len =
  if pos < 0 || len < header_size || pos + len > Bytes.length b then
    Error "tcp: truncated header"
  else
    let data_offset = (Char.code (Bytes.get b (pos + 12)) lsr 4) * 4 in
    if data_offset <> header_size then Error "tcp: options unsupported"
    else
      let pseudo =
        Udp.pseudo_header_sum ~src ~dst ~protocol:Ipv4.protocol_tcp ~length:len
      in
      if Vw_util.Checksum.finish (pseudo + Vw_util.Checksum.ones_sum b ~pos ~len) <> 0
      then Error "tcp: checksum mismatch"
      else
        Ok
          {
            src_port = Bytes.get_uint16_be b pos;
            dst_port = Bytes.get_uint16_be b (pos + 2);
            seq = Int32.to_int (Bytes.get_int32_be b (pos + 4)) land mask32;
            ack_seq = Int32.to_int (Bytes.get_int32_be b (pos + 8)) land mask32;
            flags = flags_of_byte (Char.code (Bytes.get b (pos + 13)));
            window = Bytes.get_uint16_be b (pos + 14);
            payload = Bytes.sub b (pos + header_size) (len - header_size);
          }

let of_bytes ~src ~dst b = read ~src ~dst b ~pos:0 ~len:(Bytes.length b)

let pp ppf t =
  let f = t.flags in
  let flag_str =
    String.concat ""
      [
        (if f.syn then "S" else "");
        (if f.ack then "A" else "");
        (if f.fin then "F" else "");
        (if f.rst then "R" else "");
        (if f.psh then "P" else "");
        (if f.urg then "U" else "");
      ]
  in
  Format.fprintf ppf "[tcp %d -> %d seq=%d ack=%d %s len=%d]" t.src_port
    t.dst_port t.seq t.ack_seq flag_str (Bytes.length t.payload)
