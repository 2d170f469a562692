(** Physical BDD variable allocation.

    A [Space] owns a {!Bdd.man} and hands out {e blocks}: contiguous or
    interleaved groups of BDD variables encoding one attribute of one
    logical domain.  This is bddbddb's notion of {e physical domains}
    (V0, V1, C0, ... in the paper's §2.4.1 "attributes naming"
    optimization): a relation attribute is stored in a block, and join/
    rename costs depend on which blocks coincide.

    Variable ordering is fixed at allocation time.  Two layout policies
    are provided, because ordering is the paper's headline scalability
    lever (§2.4.2, §4.1):

    - {!alloc} appends a block after all existing variables;
    - {!alloc_interleaved} allocates several blocks of the same domain
      with their bits interleaved (bit i of every block adjacent).
      Interleaving instances of the same domain makes [equal_blocks],
      [replace] between them, and the context [add_const] relation
      linear-size. *)

type t

type block = {
  dom : Domain.t;
  instance : int; (** 0 for V0, 1 for V1, ... *)
  bits : int array; (** BDD variable ids, least-significant first *)
}

val create :
  ?node_hint:int ->
  ?cache_bits:int ->
  ?page_bits:int ->
  ?mem_cap_bytes:int ->
  ?spill_path:string ->
  unit ->
  t
(** [node_hint]/[cache_bits] size the manager as in {!Bdd.create}.
    [page_bits] sets the arena page size; [mem_cap_bytes] caps resident
    node-page bytes, spilling cold pages to [spill_path] (default a
    temp file) — see {!Bdd.create}'s [max_bytes].  Every handle the
    relational layer retains lives behind a [Relation] ref (a
    registered root) or a registered remap hook, so {!Bdd.gc} may
    renumber the nodes and cluster them by variable level. *)

val man : t -> Bdd.man

val alloc : t -> Domain.t -> block
(** Allocate the next instance of the domain after all existing
    variables (sequential layout). *)

val alloc_interleaved : t -> Domain.t -> int -> block array
(** [alloc_interleaved s d k] allocates instances of [d] (numbered from
    the next free instance index) with interleaved bits. *)

val instances : t -> Domain.t -> block list
(** Blocks allocated so far for this domain, in instance order. *)

val domains : t -> Domain.t list
(** Every domain with at least one allocated block, sorted by name —
    the schema a persisted {!Store} records. *)

val layout : t -> (string * int * int array) list
(** Every block as (domain name, instance, variable ids), by domain name
    then instance: the physical layout a {!Store} records.  Two spaces
    with equal layouts give the same meaning to the same BDD. *)

val layout_mismatch : stored:t -> current:t -> string option
(** [None] when the two spaces give the same meaning to the same BDD:
    equal variable counts and every (domain, instance) block at the
    same variable ids (domain sizes may differ within their bit
    widths).  Otherwise a human-readable description of the first
    mismatch.  This is the incremental update's layout gate, and what
    certification checks before interpreting a store's BDDs against a
    checker engine. *)

val restore_block : t -> Domain.t -> instance:int -> bits:int array -> block
(** Re-register a block read back from a persisted store, with its
    exact saved variable ids (no fresh allocation: the on-disk BDD dump
    is only meaningful under the saved variable numbering).  Blocks of
    a domain must be restored in instance order; the variable space is
    extended past the highest bit.  Mixing [restore_block] with
    {!alloc} on the same space is not supported. *)

val instance : t -> Domain.t -> int -> block
(** [instance s d i] returns instance [i], allocating sequentially up
    to it if needed. *)

val num_vars : t -> int

val cache_stats_by_class : t -> (string * int * int) list
(** Per-operation-class (name, hits, misses) of the underlying
    manager's op cache — see {!Bdd.cache_stats_by_class}. *)

(** {2 Block-level conveniences} *)

val cube : t -> block -> Bdd.t
(** Conjunction of the block's variables, for quantification. *)

val cube_of_blocks : t -> block list -> Bdd.t

val const : t -> block -> int -> Bdd.t
(** Minterm of one element value in the block. *)

val equal_blocks : t -> block -> block -> Bdd.t
val range : t -> block -> lo:int -> hi:int -> Bdd.t
val add_const : t -> src:block -> dst:block -> delta:int -> Bdd.t

val renaming : t -> (block * block) list -> Bdd.varmap
(** A variable map renaming each [(src, dst)] block pair, bitwise. *)
