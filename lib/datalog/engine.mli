(** The bddbddb evaluation engine: the BDD executor and fixpoint driver
    for {!Ralg} query plans.

    The pipeline is split in three (§2.4 of the paper):
    + {!Ralg.lower}: Datalog -> relational-algebra IR;
    + {!Ralg.optimize}: separable [plan -> plan] passes, toggled from
      {!options};
    + this module: compile each plan's sources/constraints/head to BDD
      pipelines and run the stratified (semi-naive) fixpoint.

    The §2.4.1 optimizations are individually toggleable (for the §6.4
    ablation benchmarks):

    - {e attributes naming}: rule variables are greedily assigned the
      physical block most of their occurrences are already stored in,
      minimizing [Bdd.replace] work ([greedy_blocks]);
    - {e rule application order}: strata (SCCs of the predicate
      dependency graph) are solved in dependency order; non-recursive
      rules run once (always on — see {!Stratify});
    - {e incrementalization}: recursive rules are evaluated
      semi-naively, joining only against the tuples new since the rule
      last ran, and prepared (renamed/selected) operand BDDs are cached
      while their source relation is unchanged — the paper's
      loop-invariant detection ([semi_naive], [hoist]). *)

type options = {
  semi_naive : bool;
  hoist : bool;
  greedy_blocks : bool;
  reorder_joins : bool;
      (** greedy subgoal reordering: most-constrained atom first, then
          by shared bound variables (off by default — the paper's rules
          are already written in good join order) *)
  pushdown : bool;
      (** early quantification: project each variable away at its last
          use instead of at the end of the rule *)
  gc_interval : int;  (** run [Bdd.gc] every N rule applications; 0 = never *)
  budget : Budget.t option;
      (** resource budget: installed on the manager at {!create} (node
          and allocation limits enforced inside [Bdd.mk]) and polled by
          the engine between rule applications (deadline, cancellation)
          and fixpoint rounds (iteration limit) *)
  page_bits : int option;
      (** node-arena page size (log2 slots per page) — see
          {!Bdd.create}; [None] = the arena default *)
  mem_cap_bytes : int option;
      (** cap on resident node-page bytes: past it, cold pages spill to
          a fresh temp file and fault back in on demand; [None] =
          uncapped (everything resident, no pager overhead) *)
}

val default_options : options

type t

type rule_stat = {
  rs_rule : Ast.rule;
  rs_applications : int;  (** evaluate+commit cycles of this rule *)
  rs_seconds : float;  (** wall time spent in them *)
  rs_cache_lookups : int;
      (** BDD op-cache lookups (hits + misses) they performed — a
          machine-independent proxy for BDD work *)
}

type stats = {
  rule_applications : int;
  iterations : int;  (** total fixpoint rounds across all strata *)
  strata : int;
  peak_live_nodes : int;
  solve_seconds : float;
  gcs : int;  (** BDD garbage collections during the whole run *)
  op_cache : (string * int * int) list;
      (** per-operation-class (name, hits, misses) of the BDD op cache
          since manager creation — see {!Bdd.cache_stats_by_class} *)
  rule_stats : rule_stat list;
      (** per-rule attribution, in stratum order (once rules before
          loop rules); cumulative across runs of this engine *)
  arena : Bdd.arena_stats;
      (** node-arena pager counters (pages resident/pinned, evictions,
          spill traffic, table bytes) at solve end *)
}

val cache_hit_rate : stats -> float
(** Overall op-cache hit fraction in [0, 1] from [op_cache]. *)

exception Engine_error of string

val create :
  ?options:options ->
  ?element_names:(string -> string array option) ->
  ?domain_order:string list ->
  Ast.program ->
  t
(** Resolves, lowers, and optimizes the program ({!Ralg}), then
    allocates one interleaved group of physical blocks per logical
    domain (in [domain_order] if given, else in the program's
    [.bddvarorder], else in declaration order; domains an order leaves
    out follow in declaration order) and compiles every plan to a BDD
    step pipeline.  A [domain_order] naming an undeclared domain, or
    one domain twice, is an {!Engine_error}.  Plan-time failures
    are reported as {!Engine_error} prefixed with the offending rule's
    [file:line] when known.  Raises {!Resolve.Check_error} /
    {!Stratify.Not_stratified} / {!Engine_error}. *)

val parse_and_create :
  ?options:options ->
  ?element_names:(string -> string array option) ->
  ?domain_order:string list ->
  ?file:string ->
  string ->
  t
(** Convenience: {!Parser.parse} then {!create}.  [file] is recorded in
    rule positions for diagnostics and {!explain}. *)

val space : t -> Space.t
val domain : t -> string -> Domain.t
val relation : t -> string -> Relation.t
(** The live relation object: read results from it after {!run}, load
    input tuples into it before. *)

val relations : t -> Relation.t list

val exported_relations : t -> Relation.t list
(** The program's interface relations — declared inputs (including
    computed inputs installed by a driver) and outputs, in declaration
    order, excluding internal working relations. *)

val declared_relations : t -> Relation.t list
(** Every declared relation, internals included, in declaration order.
    This is the set a persistent results store ({!Bddrel.Store}) saves:
    an incremental re-solve needs the previous run's internal working
    relations (e.g. [assign]) as its starting point, not just the
    interface. *)

val input_relations : t -> Relation.t list
(** The declared [Input] relations, in declaration order — the set an
    incremental driver diffs against a previous run's stored values. *)

val negated_relations : t -> string list
(** Names of relations some optimized plan reads under negation
    (subtracts).  Additions to these can {e retract} derived facts, so
    {!solve_incremental}'s additions-only re-seeding is unsound when any
    of them changed: the driver must fall back to a cold solve. *)

val ir_plans : t -> (Ralg.plan list * Ralg.plan list) list
(** The optimized query plans this engine executes, per stratum as
    (once, loop) — the exact IR also accepted by
    {!Naive_eval.solve_ir}. *)

val set_tuples : t -> string -> int array list -> unit
val add_tuple : t -> string -> int array -> unit

val run : t -> stats
(** Solve to fixpoint.  Idempotent: calling again after adding tuples
    to input relations resumes and re-converges.  This also makes an
    aborted run recoverable: if a previous [run] raised
    {!Bdd.Limit_exceeded}, relations keep the (sound, partial) tuples
    derived so far, and calling [run] again — typically after
    {!set_budget} with a looser budget or [None] — re-converges to the
    exact fixpoint.  Raises {!Bdd.Limit_exceeded} when the installed
    budget is violated. *)

val solve : t -> (stats, Solver_error.t) result
(** {!run} with structured errors instead of exceptions:
    [Error (Budget_exhausted _)] when the budget is violated (carrying
    the reason, fixpoint rounds completed, and live node count at
    abort), [Error (Internal _)] for {!Engine_error}.  Other exceptions
    propagate. *)

val solve_incremental : t -> changed:(string * Bdd.t) list -> (stats, Solver_error.t) result
(** Incremental re-solve after additions to already-solved relations.

    Precondition: every relation holds a {e sound under-approximation}
    of the new fixpoint that is complete except for consequences of
    [changed] — typically the previous run's fixpoint with the new
    input tuples unioned in.  [changed] lists, per modified relation,
    the BDD of tuples {e added} relative to that previous state
    (removals are not supported here: with a removal the old fixpoint
    is no longer an under-approximation, and the driver must cold-solve
    — see {!negated_relations} for the other unsoundness gate).

    Instead of evaluating every rule against full relations, each rule
    re-runs only at body positions whose source actually gained tuples,
    joining against the fresh tuples alone, and recursive strata seed
    their semi-naive deltas with just the accumulated fresh set — so an
    update that touches nothing converges in one empty pass per
    stratum, and a small edit costs time proportional to what it
    dirties.  Produces the exact fixpoint of the monotone program on
    the new inputs (identical to a cold {!run}).  Falls back to a full
    {!run} when [semi_naive] is off.  Errors are structured as in
    {!solve}. *)

(** {2 Fixpoint certification}

    Result checking, independent of the fixpoint driver: one full
    (non-semi-naive, non-committing) application of every compiled
    rule against the relations' current values.  If the relations hold
    a fixpoint of the loaded inputs, no rule derives anything new and
    the list is empty; otherwise each violation names the rule, its
    stratum, and the tuples its single application would add.  This is
    the apply-once half of the {!Pta.Certify} check — far cheaper than
    a solve, and equally valid against a cold, incremental, capped, or
    hand-coded result once its relations are installed. *)

type violation = {
  vio_stratum : int;  (** 0-based stratum index of the violated rule *)
  vio_rule : Ast.rule;  (** the rule, carrying its source position *)
  vio_head : Relation.t;  (** the head relation missing tuples *)
  vio_fresh : Bdd.t;
      (** the missing tuples, over the head's blocks.  Only rooted
          while the check runs: enumerate witnesses before any further
          BDD work that could trigger a collection. *)
}

val check_fixpoint : ?max_violations:int -> t -> violation list
(** Scan every stratum's rules in order, stopping after
    [max_violations] (default: unbounded).  Commits nothing and leaves
    every relation untouched.  Raises {!Bdd.Limit_exceeded} when an
    installed budget is violated mid-check. *)

val set_budget : t -> Budget.t option -> unit
(** Replace (or clear, with [None]) the budget installed at creation,
    both on the engine and the underlying BDD manager.  Use together
    with re-{!run} to resume an aborted solve. *)

val last_stats : t -> stats option

val explain : Format.formatter -> t -> unit
(** Pretty-print what this engine will (or did) execute: the domains
    with sizes, widths, and physical instance counts; the optimization
    pass pipeline with each pass's on/off state; every rule's optimized
    plan ({!Ralg.pp_plan}) with rename counts; and, after a solve,
    per-rule time/BDD-op attribution sorted by time. *)
