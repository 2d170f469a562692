(** Recursive-descent parser for the Datalog concrete syntax.

    The accepted grammar (sections in order, all required, possibly
    empty; [#] comments anywhere):

    {v
    DOMAINS
      V 262144 "variable.map"
      H 65536
    RELATIONS
      input  vP0    (variable : V, heap : H)
      output vP     (variable : V, heap : H)
             tmp    (variable : V)             # internal
    RULES
      vP(v, h)   :- vP0(v, h).
      vP(v1, h)  :- assign(v1, v2), vP(v2, h).
      notVT(v,t) :- vET(v, tv), !aT(t, tv).
      refine(v)  :- vT(v, td), vST(v, tc), td != tc.
      who(h, f)  :- hP(h, f, "a.java:57").
    v} *)

type error = { message : string; line : int }

exception Parse_error of error

val parse : ?file:string -> string -> Ast.program
(** Raises {!Parse_error} or {!Lexer.Lex_error}.  A [.bddvarorder]
    directive naming an undeclared domain, or one domain twice, is a
    {!Parse_error} at the directive's line.  [file] (default
    ["<datalog>"]) is recorded in every rule's {!Ast.pos} so
    diagnostics and [explain] can report [file:line]. *)
