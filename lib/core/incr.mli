(** Incremental re-analysis: re-solve a modified program from a stored
    fixpoint, paying only for what the edit dirtied.

    {!update} diffs the freshly extracted input relations against the
    ones persisted by a previous run (per-relation added/removed tuple
    sets, computed as BDD diffs so the comparison scales with BDD size,
    not tuple count), seeds the engine's semi-naive delta path with
    only the added tuples ({!Datalog.Engine.solve_incremental}), and
    re-solves to fixpoint.  The result is bit-identical to a cold
    solve of the modified program.

    {b Soundness gates.}  The incremental path is only exact when the
    stored fixpoint under-approximates the new one, which additions to
    a monotone program guarantee.  Anything else falls back to a cold
    solve, with the reason reported:

    - {e removals}: any input tuple removed ("any removal ⇒ cold" —
      the deliberate first rung of the removal policy; DRed-style
      over-deletion can later slot in behind the same verdict type);
    - {e negation}: the program subtracts some relation, making rules
      non-monotone in it;
    - {e layout change}: a domain crossed a power of two or the block
      assignment moved, so the stored BDDs are meaningless in the new
      variable numbering;
    - {e relation-set change}: the store does not hold exactly the
      program's declared relations (e.g. a legacy store that saved
      only the interface relations, without the internal working
      relations an incremental restart needs).

    Element-id stability: Jir program ids are dense in construction
    order, so append-only edits (new classes, methods, statements at
    the end) keep existing ids stable and diff as pure additions;
    edits that renumber existing entities surface as removals and take
    the cold path — slower, never wrong. *)

type cold_reason =
  | Layout_changed of string  (** human-readable description of the first mismatch *)
  | Relation_set_changed of string list  (** symmetric difference of the relation name sets *)
  | Removals of string list  (** inputs that lost tuples *)
  | Negation of string list  (** relations read under negation *)

type verdict =
  | Incremental  (** re-solved from the added tuples only *)
  | Unchanged  (** inputs semantically identical: stored fixpoint adopted, nothing solved *)
  | Cold of cold_reason  (** full re-solve, with why *)

type outcome = {
  engine : Datalog.Engine.t;
      (** holds the complete new fixpoint whatever the verdict; its
          space is the one to persist against *)
  program_text : string;
  verdict : verdict;
  stats : Datalog.Engine.stats option;  (** [None] only for [Unchanged] *)
  deltas : (string * Bdd.t * Bdd.t) list;
      (** per-relation (name, added, removed) vs the stored fixpoint,
          unchanged relations omitted — exactly the
          {!Bddrel.Store.save_delta} payload.  Empty for [Unchanged];
          meaningless for [Cold] (full-save instead). *)
  changed_inputs : string list;  (** inputs that gained tuples *)
}

val update :
  ?options:Datalog.Engine.options ->
  ?query:Programs.query_suffix ->
  algo:Analyses.basic ->
  store:Store.t ->
  Jir.Factgen.t ->
  (outcome, Solver_error.t) result
(** Prepare the modified program's engine ({!Analyses.prepare_basic}),
    compare against [store], and re-solve by the cheapest sound route.
    [store] must have been saved from the same algorithm and query
    suffix (the caller's content key discipline); mismatches are
    caught by the relation-set and layout gates, not trusted.
    [Error _] carries budget violations from whichever solve ran. *)

val verdict_to_string : verdict -> string

val layout_mismatch : stored:Space.t -> current:Space.t -> string option
(** [None] when the two spaces give the same meaning to the same BDD:
    equal variable counts and every (domain, instance) block at the
    same variable ids.  Otherwise a human-readable description of the
    first mismatch.  This is {!update}'s layout gate, exported so
    {!Certify} can refuse to interpret a store's BDDs against a
    checker engine with a different physical layout. *)
