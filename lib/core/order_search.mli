(** Empirical variable-order search.

    Finding the best BDD variable order is NP-complete (§2.4.2); the
    paper's bddbddb "automatically explores different alternatives
    empirically to find an effective ordering" [35].  This module does
    the same at the granularity the engine controls: the relative
    order of the logical domains' variable blocks.  Candidates are the
    order the program runs with (its [.bddvarorder] if it has one,
    else declaration order), its reverse, and seeded random
    permutations; each candidate solves the given program and is
    scored by peak live BDD nodes (ties broken by time). *)

type candidate = {
  order : string list;
  seconds : float;
  peak_nodes : int;
  rule_applications : int;
}

type job =
  | Basic of Analyses.basic
  | Context_sensitive of Context.t  (** Algorithm 5 *)

val search : ?budget:int -> ?seed:int -> Jir.Factgen.t -> job -> candidate list
(** [search ~budget fg job] runs [2 + budget] candidates (default
    budget 6) and returns them best-first. *)
