(** ARP packet wire format (RFC 826, Ethernet/IPv4 flavor).

    The testbed hosts can resolve neighbors dynamically instead of relying
    on static tables — which also makes address resolution itself a
    protocol VirtualWire can test (drop the replies and watch IP stall). *)

type op = Request | Reply

type t = {
  op : op;
  sender_mac : Mac.t;
  sender_ip : Ip_addr.t;
  target_mac : Mac.t;  (** all-zero in requests *)
  target_ip : Ip_addr.t;
}

val ethertype : int
(** 0x0806 *)

val to_bytes : t -> bytes
val of_bytes : bytes -> (t, string) result
