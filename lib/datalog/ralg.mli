(** The query-plan IR: Datalog rules lowered to BDD relational algebra
    (bddbddb, §2.4 of the paper), with the §2.4.1 optimizations as
    separable [plan -> plan] passes.

    A {!plan} is a purely symbolic object — no BDDs, no [Space] — so it
    can be built, optimized, validated, and pretty-printed without an
    engine, and the very same plan can be executed by two independent
    executors: the BDD hot path ({!Engine}) and the tuple-level
    reference interpreter ({!Naive_eval.solve_ir}).  That dual
    execution is the differential-testing contract every pass is held
    to: for any toggle combination, both executors must produce
    identical tuple sets.

    The operations of the algebra, per rule:
    - {e select} constants ({!Cconst} columns) and {e equate}
      duplicate-variable columns ({!Cdup});
    - {e exist}/project away dead columns ([quantify] lists);
    - {e rename} storage instances to the rule binding (implicit in the
      per-column storage-vs-{!plan.binding} mismatch);
    - {e relprod}/join ({!Join}), {e diff} ({!Subtract}), constraint
      application ({!Constrain});
    - {e union-into-head} ({!head}). *)

(** One column of an atom, positionally. *)
type col =
  | Cvar of string  (** first occurrence of this variable in the atom *)
  | Cdup of int  (** repeat of the variable first seen at this column *)
  | Cconst of int * string  (** resolved element index, source text *)
  | Cwild

type source = {
  src_rel : string;
  src_cols : col array;
  src_hoist : bool;
      (** loop-invariant hoisting: cache the prepared (selected,
          equated, projected, renamed) operand while the source
          relation is unchanged *)
}

type constr =
  | Cmp_vv of { left : string; op : Ast.cmp_op; right : string }
  | Cmp_vc of { var : string; op : Ast.cmp_op; value : int; text : string }

type step_op =
  | Join of source
  | Subtract of source  (** negated atom: set difference *)
  | Constrain of constr

type step = {
  op : step_op;
  quantify : string list;
      (** variables existentially quantified immediately after this
          step (sorted by name); each non-head variable appears in
          exactly one step's [quantify] across the plan *)
}

type head = { hd_rel : string; hd_cols : col array }

type plan = {
  rule : Ast.rule;
  var_doms : (string * string) list;
      (** variable -> domain name, in {!Ast.vars_of_rule} order *)
  binding : (string * int) list;
      (** the physical-domain assignment: variable -> instance of its
          domain, in {!Ast.vars_of_rule} order; injective per domain *)
  steps : step array;
  head : head;
  deltas : int list;
      (** {!Join} step indices to evaluate semi-naively (one delta pass
          per index); empty = full evaluation *)
}

exception Plan_error of { message : string; pos : Ast.pos option }
(** Lowering/validation failure, carrying the rule's source position
    when known. *)

(** {2 Lowering} *)

val storage_slots : Resolve.t -> string -> (string * int) array
(** Storage layout of a relation: per column, (domain name, physical
    instance).  The k-th attribute of domain D is stored in instance k
    of D. *)

val lower : Resolve.t -> Ast.rule -> plan
(** Datalog -> IR, unoptimized: naive (non-greedy) binding, body
    scheduled positives-first with negations/comparisons flushed as
    soon as fully bound, all projection deferred to the last step, no
    deltas, no hoisting.  Raises {!Plan_error}. *)

(** {2 Optimization passes} *)

type toggles = {
  naming : bool;  (** greedy physical-instance assignment (§2.4.1) *)
  reorder : bool;  (** greedy join reordering: most-constrained first *)
  pushdown : bool;  (** quantify variables at their last use *)
  semi_naive : bool;  (** delta rewriting of recursive joins *)
  hoist : bool;  (** loop-invariant operand caching *)
}

val default_toggles : toggles
(** naming, pushdown, semi-naive, hoist on; reorder off — mirrors
    {!Engine.default_options}. *)

type pass = {
  pass_name : string;
  pass_doc : string;
  pass_on : bool;
  pass_apply : Resolve.t -> plan -> plan;
}

val pass_list : toggles -> stratum_preds:string list -> pass list
(** The declared pipeline, in application order: naming, reorder,
    pushdown, semi-naive, hoist.  [stratum_preds] are the predicates of
    the rule's stratum (semi-naive rewrites joins against them). *)

val optimize : Resolve.t -> ?toggles:toggles -> stratum_preds:string list -> plan -> plan
(** Apply the enabled passes in order, then check the result's
    structural invariants: binding covers every variable and is
    injective per domain; column arities match declarations; [Cdup]
    back-references hit a [Cvar]; no wildcard in the head; quantified
    variables are exactly the non-head variables, each quantified once
    and never used by a later step; [deltas] index {!Join} steps.
    Raises {!Plan_error}. *)

(** {2 Inspection} *)

val instance_demand : Resolve.t -> plan list -> (string, int) Hashtbl.t
(** Physical instances needed per domain: max over storage layouts of
    all declared relations and the bindings of the given plans
    (at least 1 per domain). *)

val pp_plan : Resolve.t -> Format.formatter -> plan -> unit
(** Human-readable plan: the rule with its source position, the
    binding with domain widths, each step with its renames/quantifier/
    delta annotations, the head, and the rename totals. *)
