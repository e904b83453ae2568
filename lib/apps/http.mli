(** A minimal HTTP/1.0 client and server over {!Vw_tcp.Tcp}.

    The paper motivates VirtualWire with testbeds like "a web server
    cluster" (§3.1); this module supplies that application layer so
    examples and tests can run realistic request/response workloads over
    the TCP implementation — one request per connection, `Content-Length`
    framing, connection close ends the response. *)

type request = {
  meth : string;
  path : string;
  req_headers : (string * string) list;
  req_body : string;
}

type response = {
  status : int;
  reason : string;
  resp_headers : (string * string) list;
  resp_body : string;
}

val response :
  ?status:int -> ?reason:string -> ?headers:(string * string) list ->
  string -> response
(** [response body] is a [200 OK] with Content-Length set. *)

val encode_request : request -> string
val encode_response : response -> string

val parse_request : string -> (request, string) result
(** Total parser over a complete request text (used once the TCP stream has
    delivered head + body). *)

val parse_response : string -> (response, string) result

(** {1 Server} *)

module Server : sig
  type t

  val start :
    Vw_tcp.Tcp.stack -> port:int -> handler:(request -> response) -> t
  (** Accepts connections, parses one request each, responds and closes.
      Malformed requests get a [400]. *)

  val requests_served : t -> int
  val bad_requests : t -> int
end

(** {1 Client} *)

module Client : sig
  type result_t = (response, string) Stdlib.result

  val get :
    ?src_port:int ->
    ?timeout:Vw_sim.Simtime.t ->
    Vw_tcp.Tcp.stack ->
    dst:Vw_net.Ip_addr.t ->
    dst_port:int ->
    path:string ->
    (result_t -> unit) ->
    unit
  (** One HTTP GET. The callback fires exactly once: with the parsed
      response, or with [Error] on connection failure, malformed response,
      or [timeout] (default 5 s) — the hook a failover client needs. *)
end
