(** The six tables of Figure 3 — the compiled form of an FSL script.

    "The interpreter parses the script to generate a set of six tables which
    are used to initialize each FIE and FAE involved in the test scenario."

    The filter and node tables classify packets; the counter, term,
    condition and action tables hold the execution state dependencies:
    each counter lists the terms its changes may affect, each term the
    conditions it appears in, each condition the (node, action) pairs it
    triggers. All ids are dense indexes into the corresponding arrays.
    Every node receives the {e entire} set of tables (as the paper does,
    "for simplicity") and filters by the node ids it plays. *)

type tuple_pattern =
  | Bytes_pattern of bytes
  | Var_pattern of int  (** var id, bound at run time *)

type tuple = {
  t_offset : int;
  t_len : int;
  t_mask : bytes option;
  t_pat : tuple_pattern;
}

type filter_entry = { fid : int; fname : string; f_tuples : tuple list }

type var_entry = { vid : int; vname : string; v_len : int }

type node_entry = {
  nid : int;
  nname : string;
  nmac : Vw_net.Mac.t;
  nip : Vw_net.Ip_addr.t;
}

type counter_kind =
  | Event of { e_fid : int; e_from : int; e_to : int; e_dir : Ast.direction }
  | Local

type counter_entry = {
  cid : int;
  cname : string;
  ckind : counter_kind;
  owner : int;
      (** node holding the authoritative value: the observing endpoint for
          event counters, the declared node for locals *)
  affected_terms : int list;  (** every term referencing this counter *)
  value_subscribers : int list;
      (** nodes (≠ owner) that evaluate terms over this counter and hence
          receive counter-value control messages *)
}

type term_operand = Cnt of int | Num of int

type term_entry = {
  tid : int;
  left : int;  (** counter id *)
  op : Ast.relop;
  right : term_operand;
  eval_node : int;  (** the left counter's owner *)
  status_subscribers : int list;
      (** nodes (≠ eval_node) evaluating conditions over this term *)
  in_conditions : int list;
}

type cond_expr =
  | C_true
  | C_term of int
  | C_and of cond_expr * cond_expr
  | C_or of cond_expr * cond_expr
  | C_not of cond_expr

type cond_entry = {
  did : int;
  expr : cond_expr;
  eval_nodes : int list;  (** where actions hang off this condition *)
  cond_actions : (int * int) list;  (** (node id, action id) *)
}

type fspec = {
  fs_fid : int;
  fs_from : int;
  fs_to : int;
  fs_dir : Ast.direction;
}

type compiled_action =
  | A_assign of int * int
  | A_enable of int
  | A_disable of int
  | A_incr of int * int
  | A_decr of int * int
  | A_reset of int
  | A_set_curtime of int
  | A_elapsed_time of int
  | A_drop of fspec
  | A_delay of fspec * Vw_sim.Simtime.t
  | A_reorder of fspec * int * int array
  | A_dup of fspec
  | A_modify of fspec * (int * bytes) option  (** None = random perturbation *)
  | A_fail of int
  | A_stop
  | A_flag_error of int  (** rule index, for error reports *)
  | A_bind_var of int * bytes  (** var id, value (already width-fitted) *)

type action_entry = { aid : int; exec_node : int; act : compiled_action }

type t = {
  scenario_name : string;
  inactivity_timeout : Vw_sim.Simtime.t option;
  vars : var_entry array;
  filters : filter_entry array;
  nodes : node_entry array;
  counters : counter_entry array;
  terms : term_entry array;
  conds : cond_entry array;
  actions : action_entry array;
  rule_of_cond : int array;  (** condition id → source rule index *)
}

val eval_term : t -> counter_values:int array -> int -> bool
(** [eval_term t ~counter_values tid]: term [tid]'s relation over the
    given counter values. *)

val eval_cond : t -> term_status:bool array -> int -> bool
(** [eval_cond t ~term_status did]: condition [did]'s expression over the
    given term statuses, left to right with short-circuit [&&] / [||]. *)

(** The classifier's immutable structure-of-arrays form, compiled once
    from the filter table at INIT, and the classification index. A
    filter's tuples land in three places:
    - a bucketed filter does not carry its index tuple, its first
      mask-free literal on the index window: selecting the bucket has
      already tested it (see [ci_buckets]);
    - its first keyed tuple left (see {!keyed}) moves to the fid-indexed
      [fk_*] arrays, which the classifier tests first, as one inline
      compare;
    - any others stay in CSR (start-offset + flat member) layout, as int
      keys or in one byte pool.

    The record form stays the wire/codec format and is what the cascade
    walks. See DESIGN.md §5e. *)
module Compiled : sig
  type t = {
    fk_pos : int array;
        (** fid → the key tuple's frame byte offset. A filter without one
            holds (14, 0, 0, 0) in [fk_*]: the empty window at the
            payload's start, which every frame matches. *)
    fk_len : int array;  (** fid → the key tuple's length (0–7 bytes) *)
    fk_mask : int array;  (** fid → the key tuple's int mask *)
    fk_key : int array;  (** fid → the key tuple's int key *)
    f_start : int array;
        (** fid → first remaining tuple index (CSR, length n_filters+1) *)
    tu_offset : int array;  (** per tuple: frame byte offset *)
    tu_pat : int array;
        (** keyed tuple (see {!keyed}): the big-endian int key, pattern
            [land] mask; other literal: pattern offset into [pool];
            < 0: var pattern −(vid+1) *)
    tu_plen : int array;  (** literal pattern length; 0 for vars *)
    tu_mask : int array;
        (** keyed tuple: the int mask (bytes beyond a short mask, or every
            byte when unmasked, are 0xff); otherwise mask offset into
            [pool], −1 = unmasked *)
    tu_mlen : int array;  (** mask length; 0 = unmasked *)
    pool : bytes;  (** patterns and masks of the tuples that are not keyed *)
    ci_offset : int;
        (** classification index (see DESIGN.md "Per-packet fast path"):
            the discriminating field's offset; −1 when there is no index *)
    ci_len : int;  (** the discriminating field's length (1–7 bytes) *)
    ci_buckets : int array Vw_util.Int_tbl.t;
        (** big-endian field value → fids constraining the field to that
            value, ascending. A filter keyed under value [v] requires the
            frame bytes at [ci_offset, ci_offset+ci_len) to equal [v], so
            the classifier reads the field once and scans
            [bucket ∪ fallback] in fid order — semantically identical to
            the full linear scan. The lookup is that filter's index
            tuple's test, so neither [fk_*] nor the CSR arrays hold it.
            An {!Vw_util.Int_tbl}, so the per-frame lookup hashes the
            window value inline, with no call to the C [caml_hash];
            nothing that reads the table depends on its order. *)
    ci_fallback : int array;
        (** fids that do not constrain the field (Var_pattern, masked, or
            no tuple at the window) — always scanned, ascending *)
  }

  val max_key_len : int
  (** 7: the longest literal that compiles to an int key. *)

  val keyed : t -> int -> bool
  (** [keyed c ti]: CSR tuple [ti] is a literal of at most {!max_key_len}
      bytes, stored as an int key and mask rather than in [pool]. The
      classifier tests it as one window read, [land] mask, compare. *)
end

val compile : t -> Compiled.t
(** Flatten the filter table into its SoA form and build the
    classification index: choose the discriminating (offset, len) window
    — the one a mask-free literal tuple constrains in the most filters,
    ties toward the smallest window — and bucket the filters by its
    value. Pure. The index is derived from the filter table and never
    shipped: each node builds its own at INIT. *)

val index_stats : Compiled.t -> int * int * int
(** [(buckets, largest_bucket, fallback_filters)] — the shape of the
    index, for the bench summary. *)

val node_by_name : t -> string -> node_entry option
val node_by_mac : t -> Vw_net.Mac.t -> node_entry option
val counter_by_name : t -> string -> counter_entry option
val filter_by_name : t -> string -> filter_entry option

val filter_name : t -> int -> string
val node_name : t -> int -> string
val counter_name : t -> int -> string
(** The entry's name, or ["filter#<id>"] (["node#<id>"], ["counter#<id>"])
    when the id is out of range, as ids read from an event log may be. *)

val pp : Format.formatter -> t -> unit
(** Dump all six tables, the [vwctl parse] output. *)
