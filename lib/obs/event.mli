(** Typed flight-recorder events for the FIE cascade and control plane.

    Each event captures one step of the per-packet pipeline (classify →
    counter → term → condition → action, Figure 4b) or of the control-plane
    propagation behind it, stamped with the simulation time, the node that
    produced it, and a {e causal id} — the sequence number of the root event
    (the packet classification or control-frame receipt) whose processing
    produced it. Root events are their own cause.

    The JSONL rendering is a stable, documented schema
    ([vw-events/1], see docs/OBSERVABILITY.md); [vwctl run --events] writes
    one [to_json] line per event. *)

type point = Ingress | Egress
type fault_kind = Drop | Delay | Reorder | Dup | Modify

(** Decoded control-plane message, as much of it as the causal stitcher
    needs to pair a send with the matching receive. *)
type ctl =
  | C_init
  | C_start
  | C_counter_update of { cid : int; value : int }
  | C_term_status of { tid : int; status : bool }
  | C_var_bind of { vid : int }
  | C_report_stop of { nid : int }
  | C_report_error of { nid : int; rule : int }

type body =
  | Packet_classified of { point : point; fid : int }
      (** a frame matched filter [fid] at this hook point *)
  | Counter_changed of { cid : int; value : int; delta : int }
      (** this node's view of counter [cid] moved by [delta] to [value] —
          via an observed event, an action, or a control update *)
  | Term_flipped of { tid : int; status : bool }
  | Condition_rose of { did : int }  (** edge-trigger: false → true *)
  | Action_fired of { did : int; aid : int }
  | Fault_applied of { did : int; aid : int; fault : fault_kind }
  | Control_sent of { dst_nid : int; ctl : ctl }
  | Control_received of { ctl : ctl }
  | Report_raised of { nid : int; rule : int option }
      (** [rule = None] for STOP, [Some r] for FLAG_ERROR on rule [r] *)
  | Expect_checked of { xid : int; ok : bool }
      (** verdict of conformance expectation [xid] (CONFORM section),
          appended after the run by [vwctl conform] *)

type t = {
  seq : int;  (** run-global sequence number, dense and monotonic *)
  time : Vw_sim.Simtime.t;
  node : string;  (** testbed node name *)
  nid : int;  (** node-table id; -1 before INIT *)
  cause : int;  (** [seq] of the root event; roots point at themselves *)
  body : body;
}

val kind_name : body -> string
val all_kind_names : string list
(** The ten kind tags, in pipeline order. *)

val point_name : point -> string
val fault_name : fault_kind -> string
val ctl_name : ctl -> string

val ctl_equal : ctl -> ctl -> bool
(** Payload equality — pairs a [Control_received] with the [Control_sent]
    that produced it. *)

val kind_code : body -> int
(** The [vw-events/2] kind byte, 0..9 in [all_kind_names] order. *)

val ctl_to_fields : ctl -> int * int * int
(** Flatten a control payload to [(tag, b, c)] for the binary slot
    fields: tag 0 init, 1 start, 2 counter_update (cid, value),
    3 term_status (tid, 0/1), 4 var_bind (vid), 5 report_stop (nid),
    6 report_error (nid, rule). *)

val to_fields : body -> int * int * int * int * int
(** Flatten a body to the [vw-events/2] fixed fields
    [(kind, aux, a, b, c)]: [kind] is {!kind_code}, [aux] a small enum
    byte (hook point, term status, fault kind, ctl tag, or rule-present
    flag), [a] a 32-bit id, [b]/[c] full-width payload ints. *)

val of_fields :
  kind:int -> aux:int -> a:int -> b:int -> c:int -> (body, string) result
(** Inverse of {!to_fields}; [Error] names the out-of-range field. *)

val to_json : t -> string
(** One JSON object, no trailing newline (schema [vw-events/1]). *)

val pp : Format.formatter -> t -> unit
