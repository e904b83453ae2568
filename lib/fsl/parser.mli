(** Recursive-descent parser for FSL.

    Accepts the concrete syntax of the paper's Figures 2, 5 and 6,
    including both the parenthesized and bare forms of fault actions
    ([DROP( pkt, a, b, RECV )] and [DROP pkt, a, b, RECV]), [FLAG_ERROR]
    and [FLAG_ERR] as synonyms, an optional inactivity timeout after the
    scenario name ([SCENARIO Test_Single_Node_Failure 1sec]), and [=] or
    [==] for equality. *)

exception Parse_error of string * Ast.position

val parse : string -> (Ast.script, string) result
(** Lex + parse. The error string includes line/column. *)
