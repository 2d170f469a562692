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

(** {2 The commit cycle} *)

val store_key : program_bytes:string -> algo:string -> query:Programs.query_suffix -> string
(** The content key a store is saved under: a hash of the program bytes,
    the algorithm tag, the query-suffix text and
    {!Store.format_version}.  A change to any of them is a store miss. *)

type mark =
  | Not_certifying
  | Marked
  | Mark_refused of string
      (** {!Store.mark_certified_ident}'s error, e.g. another save moved
          the tip first: the store is left unmarked *)

type rescue = { r_quarantined : string option; r_check : Certify.verdict }
(** The result failed certification: the delta chain went to
    [r_quarantined] and a cold re-solve, certified by [r_check], was
    committed instead. *)

type committed = {
  c_key : string;
  c_outcome : outcome;
  c_check : Certify.verdict option;  (** [c_outcome]'s certification, when certifying *)
  c_rescue : rescue option;
  c_snapshot : int;  (** of the base or layer written *)
  c_layers : int;  (** the layer's index; 0 for a new base *)
  c_compacted : (int * int) option;  (** layers squashed, new base snapshot *)
  c_mark : mark;
}

type commit =
  | Current of Store.t  (** the tip, loaded, already holds this program *)
  | Committed of committed

val commit :
  ?options:Datalog.Engine.options ->
  certify:bool ->
  compact_every:int ->
  dir:string ->
  program_path:string ->
  program_bytes:string ->
  unit ->
  (commit, Solver_error.t) result
(** One [ptacli update] cycle over the Algorithm 1-3 store at [dir]:
    {!update} against the chain tip; with [certify], check the result
    before it is written, and on a failure quarantine the delta chain
    and re-solve cold; save (a layer for an incremental or unchanged
    verdict, else a base); compact once the chain holds
    [compact_every > 0] layers; then, with [certify], mark the identity
    this call committed, once ({!Store.mark_certified_ident}).
    [program_path] is recorded by base name and named in parse errors.
    [Error] carries a missing or broken store, an unsupported
    algorithm, a parse error, a budget violation, or a cold re-solve
    that fails certification too (nothing is written then). *)
