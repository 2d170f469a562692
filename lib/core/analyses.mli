(** Drivers for the paper's analyses.

    Each driver instantiates the corresponding Datalog program from
    {!Programs} over a {!Jir.Factgen} extraction, loads the input
    relations, installs the OCaml-computed inputs (the context
    numbering's [IEC]/[mC] for Algorithms 5-6, the thread contexts'
    [HT]/[vP0T] for Algorithm 7), and solves. *)

type result = { engine : Datalog.Engine.t; stats : Datalog.Engine.stats; program_text : string }

type basic = Algo1  (** context-insensitive, CHA call graph, no filter *)
           | Algo2  (** + type filtering *)
           | Algo3  (** + on-the-fly call graph discovery *)

val basic_of_tag : string -> basic option
(** The algorithm a store's [algo] config tag names, when it is one of
    these three: ["algo1"], ["algo2"] or ["algo3"]. *)

val prepare_basic :
  ?options:Datalog.Engine.options ->
  ?query:Programs.query_suffix ->
  ?domain_order:string list ->
  algo:basic ->
  Jir.Factgen.t ->
  Datalog.Engine.t * string
(** Build the engine (program instantiated, inputs loaded, plans
    compiled) without running it — for [ptacli explain] and custom
    drivers.  Returns the engine and the program text.
    [domain_order] overrides the program's [.bddvarorder] (see
    {!Datalog.Engine.create}); {!Certify} uses it to rebuild a stored
    layout. *)

val run_basic :
  ?options:Datalog.Engine.options -> ?query:Programs.query_suffix -> algo:basic -> Jir.Factgen.t -> result

val solve_basic :
  ?options:Datalog.Engine.options ->
  ?query:Programs.query_suffix ->
  algo:basic ->
  Jir.Factgen.t ->
  (result, Solver_error.t) Stdlib.result
(** {!run_basic} with structured errors: budget violations — including
    ones raised while input relations are still being loaded — come
    back as [Error (Budget_exhausted _)] instead of an exception. *)

val ie_tuples : result -> (int * int) list
(** The discovered call graph of an Algorithm 3 result. *)

val make_context : ?max_bits:int -> Jir.Factgen.t -> ie:(int * int) list -> Context.t
(** Algorithm 4 over a discovered call graph (roots:
    {!Callgraph.default_roots}). *)

val prepare_cs :
  ?options:Datalog.Engine.options ->
  ?query:Programs.query_suffix ->
  Jir.Factgen.t ->
  Context.t ->
  Datalog.Engine.t * string
(** {!prepare_basic}'s analog for Algorithm 5: engine built, inputs and
    computed [IEC]/[mC] installed, not yet run. *)

val prepare_cs_claimed :
  ?options:Datalog.Engine.options ->
  ?query:Programs.query_suffix ->
  ?domain_order:string list ->
  ?otf:bool ->
  Jir.Factgen.t ->
  csize:int ->
  Datalog.Engine.t * string
(** The Algorithm 5 program (the [IECd] on-the-fly variant when [otf])
    over an externally claimed context structure: the engine is built
    with the extracted inputs loaded but [IEC]/[mC] left {e empty} —
    the caller installs whatever a candidate solution claims they were.
    This is {!Certify}'s checker for context-sensitive stores, where
    the context numbering is part of the answer being checked, not
    something to recompute. *)

val run_cs :
  ?options:Datalog.Engine.options -> ?query:Programs.query_suffix -> Jir.Factgen.t -> Context.t -> result
(** Algorithm 5: context-sensitive points-to. *)

val solve_cs :
  ?options:Datalog.Engine.options ->
  ?query:Programs.query_suffix ->
  Jir.Factgen.t ->
  Context.t ->
  (result, Solver_error.t) Stdlib.result
(** {!run_cs} with structured errors (see {!solve_basic}). *)

val run_1cfa :
  ?options:Datalog.Engine.options -> ?query:Programs.query_suffix -> Jir.Factgen.t -> result * Kcfa.t
(** Algorithm 5 under 1-CFA contexts (last call site), for the
    cloning-vs-k-CFA precision ablation. *)

val run_cs_otf :
  ?options:Datalog.Engine.options -> ?query:Programs.query_suffix -> Jir.Factgen.t -> result * Context.t
(** §4.2's variant: Algorithm 5 with contexts numbered over the
    conservative CHA call graph and invocation edges ([IECd])
    discovered on the fly from [vPC]. *)

val run_cs_types :
  ?options:Datalog.Engine.options -> ?query:Programs.query_suffix -> Jir.Factgen.t -> Context.t -> result
(** Algorithm 6: context-sensitive type analysis. *)

type thread_info = {
  n_contexts : int;  (** C domain size: 0 = global, 1 = startup thread, then 2 per creation site *)
  thread_sites : (Jir.Ir.heap_id * int * int) list;  (** site, first and second clone context *)
}

val run_thread_escape :
  ?options:Datalog.Engine.options -> ?query:Programs.query_suffix -> Jir.Factgen.t -> result * thread_info
(** Algorithm 7 + §5.6 queries. *)

type escape_counts = { captured_sites : int; escaped_sites : int; needed_syncs : int; unneeded_syncs : int }

val escape_counts : Jir.Factgen.t -> result -> escape_counts
(** Figure 5's per-benchmark counts, from a {!run_thread_escape}
    result: allocation sites captured vs escaped, and sync operations
    needed vs unneeded. *)

(** {2 Graceful degradation}

    A resource-governed run that cannot finish the precise analysis can
    still return a sound answer: every rung of the ladder is a sound
    overapproximation of the one above it
    (vP{_ cs} ⊆ vP{_ ci} ⊆ vP{_ steens}), so degrading trades precision,
    never soundness. *)

type rung =
  | Rung_cs  (** Algorithms 3+4+5: on-the-fly call graph, context numbering, context-sensitive solve *)
  | Rung_ci  (** Algorithm 2: context-insensitive with type filtering *)
  | Rung_steens  (** Steensgaard unification — near-linear, no BDDs *)

type fallback = {
  rung : rung;  (** the rung that produced the answer *)
  result : result option;  (** engine-backed result for [Rung_cs]/[Rung_ci] *)
  steens : Steensgaard.result option;  (** set only for [Rung_steens] *)
  vp : (int * int) list;
      (** the variable points-to pairs [(v, h)] of the answering rung,
          context-projected for [Rung_cs]; sorted, duplicate-free *)
  failures : (rung * Solver_error.t) list;  (** rungs tried and exhausted before the answer, in order *)
}

val rung_name : rung -> string

val solve_with_fallback :
  ?options:Datalog.Engine.options ->
  ?budget:Budget.t ->
  ?query:Programs.query_suffix ->
  Jir.Factgen.t ->
  (fallback, Solver_error.t) Stdlib.result
(** Try [Rung_cs] under [budget]; on budget exhaustion retry [Rung_ci],
    then [Rung_steens].  The single budget governs the whole ladder
    (its deadline is absolute; node/allocation limits reset per rung
    because each rung builds a fresh manager).  Only resource
    exhaustion degrades: cancellation, bad input and internal errors
    are returned as [Error] immediately. *)

(** {2 Result access} *)

val relation : result -> string -> Relation.t
val tuples : result -> string -> int array list
val count : result -> string -> float

type refinement_ratios = { population : float; multi_pct : float; refinable_pct : float }

val refinement_ratios : (string -> float) -> per_clone:bool -> refinement_ratios
(** Read the Figure 6 percentages off the tuple counts of a program
    that included one of the {!Queries} refinement suffixes, looked up
    by relation name: a result's, a loaded store's, or a frozen
    snapshot's on an overlay.  [per_clone] selects the
    [activeC]/[multiC]/[refinableC] outputs. *)
