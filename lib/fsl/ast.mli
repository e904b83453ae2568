(** Abstract syntax of FSL, the Fault Specification Language (Section 4).

    A script has four parts, mirroring the paper's figures:

    - an optional [VAR] declaration of run-time-bound filter variables;
    - a [FILTER_TABLE]: named packet definitions, each the AND of
      (offset, length, \[mask,\] pattern) tuples over the raw frame bytes;
    - a [NODE_TABLE]: hostname → MAC + IP;
    - a [SCENARIO]: counter declarations followed by an unordered set of
      [{condition >> action}] rules.

    Numeric literals: offsets, lengths, counts and durations are decimal;
    mask/pattern fields of filter tuples are hexadecimal whether or not they
    carry a [0x] prefix (the paper writes both [0x0010] and [0010]). *)

type position = { line : int; col : int }

type pattern =
  | Lit of string  (** raw literal text, interpreted as hex by the compiler *)
  | Var of string  (** a VAR: binds to the observed bytes on first match *)

type filter_tuple = {
  offset : int;
  length : int;  (** bytes *)
  mask : string option;  (** raw hex literal *)
  pat : pattern;
  tuple_pos : position;
}

type filter_def = {
  filter_name : string;
  tuples : filter_tuple list;
  filter_pos : position;
}

type node_def = {
  node_name : string;
  node_mac : string;
  node_ip : string;
  node_pos : position;
}

type direction = Send | Recv

type counter_def =
  | Event_counter of {
      pkt : string;  (** filter name *)
      from_node : string;
      to_node : string;
      dir : direction;
    }
  | Local_counter of { at_node : string }

type counter_decl = {
  counter_name : string;
  counter_def : counter_def;
  counter_pos : position;
}

type relop = Lt | Le | Gt | Ge | Eq | Ne

type operand = Counter_ref of string | Const of int

type term = { t_left : string; t_op : relop; t_right : operand }

type cond =
  | True
  | Term of term
  | And of cond * cond
  | Or of cond * cond
  | Not of cond

type fault_spec = {
  f_pkt : string;
  f_from : string;
  f_to : string;
  f_dir : direction;
}

type modify_pattern =
  | Random_bytes  (** perturb random payload bytes *)
  | Set_bytes of { m_offset : int; m_bytes : string (* raw hex *) }

type action =
  | Assign_cntr of string * int option  (** default value is 0 *)
  | Enable_cntr of string
  | Disable_cntr of string
  | Incr_cntr of string * int
  | Decr_cntr of string * int
  | Reset_cntr of string
  | Set_curtime of string
  | Elapsed_time of string
  | Drop of fault_spec
  | Delay of fault_spec * float  (** seconds *)
  | Reorder of fault_spec * int * int list
      (** queue n packets, release in the given 1-based order *)
  | Dup of fault_spec
  | Modify of fault_spec * modify_pattern
  | Fail of string  (** node name *)
  | Stop
  | Flag_error
  | Bind_var of string * string
      (** extension: bind a VAR to a hex value at run time; an unbound VAR
          makes its filter tuple unmatchable (see DESIGN.md) *)

type rule = { condition : cond; actions : action list; rule_pos : position }

(** Conformance statements — the optional [CONFORM ... END] section after
    the scenario. [INJECT] materializes a frame from the named filter's
    literal tuples and sends it at a precise sim-time; [EXPECT] asserts
    that a packet is seen (or a counter predicate holds) within a time
    window. All times are seconds relative to workload start. *)

type expect_target =
  | Expect_packet of fault_spec
      (** the packet must be observed — at [f_from]'s egress for [SEND],
          [f_to]'s ingress for [RECV] *)
  | Expect_state of { s_counter : string; s_op : relop; s_value : int }

type conform_stmt =
  | Inject of {
      i_pkt : string;  (** filter whose literal tuples shape the frame *)
      i_from : string;
      i_to : string;
      i_at : float;  (** seconds *)
      i_pos : position;
    }
  | Expect of {
      x_target : expect_target;
      x_at : float option;  (** seconds; the window center (or floor) *)
      x_within : float option;  (** seconds; the tolerance *)
      x_pos : position;
    }

type scenario = {
  scenario_name : string;
  inactivity_timeout : float option;  (** seconds *)
  counters : counter_decl list;
  rules : rule list;
}

type script = {
  vars : string list;
  filters : filter_def list;
  nodes : node_def list;
  scenario : scenario;
  conform : conform_stmt list;  (** empty when the section is absent *)
}

val direction_to_string : direction -> string
val relop_to_string : relop -> string
val pp_conform_stmt : Format.formatter -> conform_stmt -> unit

val script_to_string : script -> string
(** Renders a script back to concrete FSL syntax. Printing then parsing is
    a fixpoint: [parse (print (parse s))] prints identically — the
    round-trip property the test suite checks over every shipped script. *)
