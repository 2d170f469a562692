(** The §5 queries, as {!Programs.query_suffix} values composed onto
    the analysis programs.

    All six Figure 6 type-refinement variants share the outputs
    [activeV]/[multiT]/[refinable] (or their per-clone counterparts
    [activeC]/[multiC]/[refinableC]) so the drivers can compute the
    percentages uniformly. *)

val refinement_ci : Programs.query_suffix
(** §5.3 over a context-insensitive [vP] (Figure 6 columns 1-2,
    depending on the base algorithm). *)

val refinement_projected_cs : Programs.query_suffix
(** Over [vPC] with the context projected away (Figure 6 column 3). *)

val refinement_projected_ts : Programs.query_suffix
(** Over [vTC] projected (Figure 6 column 4). *)

val refinement_full_cs : Programs.query_suffix
(** Per-clone refinement over [vPC] (Figure 6 column 5). *)

val refinement_full_ts : Programs.query_suffix
(** Per-clone refinement over [vTC] (Figure 6 column 6). *)

val mod_ref : Programs.query_suffix
(** §5.4 context-sensitive mod-ref over Algorithm 5's results:
    outputs [mVC], [modset], [refset]. *)

val who_points_to : heap_label:string -> Programs.query_suffix
(** §5.1 memory-leak debugging: who may point to objects allocated at
    the site labelled [heap_label], and which stores (with contexts)
    created the references.  Outputs [whoPointsTo], [whoDunnit]. *)

val jce_vuln : init_method:string -> Programs.query_suffix
(** §5.2 security audit: objects derived from [String] flowing into
    the first argument of [init_method] (e.g. ["PBEKeySpec.init"]).
    Outputs [fromString], [vuln]. *)

val combine : Programs.query_suffix -> Programs.query_suffix -> Programs.query_suffix
(** Concatenate two query suffixes so one solve materializes both
    result sets (e.g. mod-ref plus refinement before persisting a
    store that will serve either kind of question). *)

(** {2 Store-backed evaluation}

    The same questions answered directly from already-solved relations
    — fresh from an engine or loaded back from a {!Bddrel.Store} —
    with plain relational algebra, no Datalog re-solve.  Each runs on a
    manager holding the relation's handles: the relation's own (pass
    [Bddrel.Relation.freeze r]), or a per-domain {!Bdd.overlay} of a
    frozen store, which is how the query server evaluates many
    requests at once.  Intermediates are left unrooted in that manager
    for its next {!Bdd.gc} or {!Bdd.reset}.  Results are sorted and
    duplicate free.

    Each takes the relevant solved relation: a points-to relation with
    ["variable"] and ["heap"] attributes ([vP], or [vPC] with its
    context attribute projected away), or a mod/ref set with
    ["method"], ["heap"], ["field"] attributes. *)

val points_to : Bdd.man -> Bddrel.Relation.frozen -> var:int -> int list
(** Heap ordinals the variable may point to. *)

val pointed_by : Bdd.man -> Bddrel.Relation.frozen -> heap:int -> int list
(** Variable ordinals that may point to the heap object — the §5.1
    memory-leak direction. *)

val alias_heaps : Bdd.man -> Bddrel.Relation.frozen -> v1:int -> v2:int -> int list
(** Heap ordinals both variables may point to; the variables alias iff
    this is non-empty.  Computed as a BDD intersection of the two
    projected heap sets. *)

val mod_ref_sites : Bdd.man -> Bddrel.Relation.frozen -> meth:int -> (int * int) list
(** [(heap, field)] pairs the method may modify (pass [modset]) or
    read (pass [refset]), in any calling context. *)
