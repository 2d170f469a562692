(** Stratification and rule ordering (§2.4.1 "rule application order").

    bddbddb accepts stratified Datalog (§2.1): rules are grouped into
    strata, each with a unique minimal model, solved in dependency
    order.  Within a stratum, a rule is {e recursive} if some positive
    body predicate belongs to the same stratum; recursive rules are
    iterated to fixpoint (semi-naively), non-recursive ones are applied
    once — the paper's observation that rule (1) of Algorithm 1 "can be
    applied only once at the beginning". *)

type stratum = {
  preds : string list;  (** predicates defined in this stratum *)
  once_rules : Ast.rule list;  (** apply once, before iterating *)
  loop_rules : Ast.rule list;  (** iterate to fixpoint *)
}

exception Not_stratified of string

val strata : Ast.program -> stratum list
(** Strata in evaluation order.  Raises {!Not_stratified} when a
    negation occurs inside a recursive component. *)
