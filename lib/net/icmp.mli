(** ICMP messages (RFC 792): echo request/reply and destination
    unreachable — enough for an in-testbed [ping] and for UDP
    port-unreachable signalling. *)

type t =
  | Echo_request of { id : int; seq : int; payload : bytes }
  | Echo_reply of { id : int; seq : int; payload : bytes }
  | Dest_unreachable of { code : int; original : bytes }
      (** [code] 3 = port unreachable; [original] is the offending IP
          header + 8 bytes, per the RFC *)

val protocol : int
(** 1 *)

val code_port_unreachable : int
(** 3 *)

val to_bytes : t -> bytes
(** Serializes with a correct ICMP checksum. *)

val of_bytes : bytes -> (t, string) result
(** Parses and verifies the checksum. *)
