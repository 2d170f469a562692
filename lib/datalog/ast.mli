(** Abstract syntax of the Datalog dialect of the paper (§2.1-§2.2).

    A program has three sections: DOMAINS (name, size, optional element
    name-map file), RELATIONS (with [input]/[output] qualifiers), and
    RULES (Prolog-style, with negation [!], don't-cares [_], quoted
    constants, and the [=]/[!=] comparisons used by the §5 queries). *)

type term =
  | Var of string
  | Const of string  (** quoted name or decimal literal *)
  | Wildcard

type atom = { pred : string; args : term list }

type literal =
  | Pos of atom
  | Neg of atom
  | Cmp of term * cmp_op * term

and cmp_op = Eq | Neq

type pos = { file : string; line : int }
(** Source position of a rule: the file (or a synthetic name like
    ["<algo5>"] for generated program text) and 1-based line of the
    rule head.  Threaded from the parser into query plans so plan-time
    failures and [explain] can say which rule they are about. *)

type rule = { head : atom; body : literal list; rule_pos : pos option }

type domain_decl = {
  dom_name : string;
  dom_size : int;
  dom_map : string option;  (** element-names file, e.g. "variable.map" *)
}

type rel_kind = Input | Output | Internal

type rel_decl = {
  rel_name : string;
  rel_kind : rel_kind;
  rel_attrs : (string * string) list;  (** attribute name, domain name *)
}

type program = {
  domains : domain_decl list;
  var_order : string list option;
      (** bddbddb's [.bddvarorder] directive: the relative order of the
          domains' variable blocks, e.g. [Some ["C"; "V"; "H"; ...]] *)
  relations : rel_decl list;
  rules : rule list;
}

val domain_order : program -> string list
(** The order the engine allocates the domains' variable blocks in when
    given no explicit order: the [.bddvarorder] directive's domains,
    then those it leaves out in declaration order; with no directive,
    declaration order. *)

val vars_of_atom : atom -> string list
(** Distinct variables, in first-occurrence order. *)

val vars_of_literal : literal -> string list
val vars_of_rule : rule -> string list

val pp_pos : Format.formatter -> pos -> unit
(** ["file:line"]. *)

val pp_pos_prefix : Format.formatter -> rule -> unit
(** ["file:line: "] when the rule has a position, [""] otherwise. *)

val pp_cmp_op : Format.formatter -> cmp_op -> unit
val pp_atom : Format.formatter -> atom -> unit
val pp_rule : Format.formatter -> rule -> unit
val pp_program : Format.formatter -> program -> unit
(** Prints a program in the concrete syntax accepted by {!Parser}. *)
