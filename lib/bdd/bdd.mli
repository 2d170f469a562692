(** Ordered, reduced binary decision diagrams.

    This is the substrate the paper builds on (it used BuDDy via the
    JavaBDD wrapper): a hash-consed node table, memoizing operation
    cache, mark-and-compact garbage collection with registered roots, the
    relational-product ([relprod]) and variable-renaming ([replace])
    operations that implement relational algebra, and satisfying-
    assignment counting/enumeration used to read results back out.

    Variables are identified by their position in the (fixed) variable
    order: variable [i] is at level [i].  Variable ordering choices are
    therefore made when allocating variables (see {!Space} in the
    [relation] library), matching the paper's static-order-with-search
    approach; there is no dynamic reordering.

    Node handles ([t]) are only meaningful together with the manager
    that created them.  {!gc} renumbers the nodes it keeps, so a handle
    held across a collection must live where the collector can rewrite
    it: an {!add_root} ref, an {!add_root_list} list, or storage an
    {!on_remap} hook rewrites. *)

type man
(** A BDD manager: node table, caches, roots. *)

type t = private int
(** A BDD node handle.  The terminals are {!bdd_false} and
    {!bdd_true}. *)

type varmap
(** A variable renaming, created with {!make_map}. *)

exception Limit_exceeded of Budget.reason
(** Raised from inside an operation when the installed {!Budget.t} is
    violated.  The node table, unique table and operation cache are
    left consistent: completed sub-results are cached, the in-flight
    intermediates become garbage for the next {!gc}, and the manager
    remains fully usable (lift or replace the budget and retry). *)

val create :
  ?node_hint:int ->
  ?cache_bits:int ->
  ?page_bits:int ->
  ?max_bytes:int ->
  ?spill_path:string ->
  nvars:int ->
  unit ->
  man
(** [create ~nvars ()] makes a manager with variables [0 .. nvars-1].
    [node_hint] sizes the initial unique-table bucket array (default
    64K); node storage itself grows page by page.  [cache_bits] sizes
    the operation cache at [2^cache_bits] entries (default 16).

    [page_bits] sets the arena page size at [2^page_bits] node slots
    (default 12, i.e. 128 KiB of packed records per page; valid range
    4–22).  [max_bytes], if given, caps the bytes of node pages held
    in memory: cold pages spill to a CRC-32-checked scratch file
    ([spill_path], default a fresh temp file created lazily) and fault
    back in on access through clock replacement.  Without [max_bytes]
    every page stays resident and the manager never touches the file
    system.  Spill IO failures and checksum mismatches raise
    [Solver_error.Error (Internal _)] with the arena left consistent. *)

val dispose : man -> unit
(** Close and delete the spill scratch file, if one was created.  The
    resident node table remains readable, but a capped manager must
    not allocate past its cap afterwards.  A no-op for uncapped
    managers. *)

val sweep_stale_spills : ?max_age_s:float -> dir:string -> unit -> int
(** Remove orphaned spill scratch files under [dir]: files whose name
    embeds a creator pid ([arena.<pid>.spill],
    [whalelam-arena.<pid>.<rand>.spill]) where that pid is dead and the
    file has not been touched for [max_age_s] seconds (default 60) —
    the debris a SIGKILLed capped solve leaves behind, which {!dispose}
    never got to delete.  Run automatically for the temp directory when
    a capped manager is created without an explicit [spill_path], and
    by [Bddrel.Store] for a store's own scratch area on load.  Returns
    the number of files removed. *)

val extend_vars : man -> int -> unit
(** [extend_vars man n] ensures variables [0 .. n-1] exist.  New
    variables are appended at the bottom of the order. *)

val bdd_false : t
val bdd_true : t

val is_const : t -> bool
val is_true : t -> bool
val is_false : t -> bool

val ithvar : man -> int -> t
(** The function [fun x -> x_i]. *)

val nithvar : man -> int -> t
(** The function [fun x -> not x_i]. *)

val var : man -> t -> int
(** Top variable of a non-terminal node. Raises [Invalid_argument] on
    terminals. *)

val low : man -> t -> t
val high : man -> t -> t

val mk_not : man -> t -> t
val mk_and : man -> t -> t -> t
val mk_or : man -> t -> t -> t
val mk_xor : man -> t -> t -> t
val mk_diff : man -> t -> t -> t
(** [mk_diff m f g] is [f AND NOT g]. *)

val mk_imp : man -> t -> t -> t
val mk_biimp : man -> t -> t -> t
val mk_ite : man -> t -> t -> t -> t

val cube_of_vars : man -> int list -> t
(** Conjunction of the given variables (a positive cube), the shape
    expected by [exist]/[forall]/[relprod]. *)

val exist : man -> cube:t -> t -> t
(** Existential quantification over the variables of [cube]. *)

val forall : man -> cube:t -> t -> t

val relprod : man -> cube:t -> t -> t -> t
(** [relprod m ~cube f g] is [exist cube (f AND g)] computed in one
    pass — the workhorse of relational join in the paper (§2.4.2). *)

val make_map : man -> (int * int) list -> varmap
(** [make_map m pairs] renames variable [a] to [b] for each [(a, b)];
    unlisted variables are unchanged.  The combined mapping must be
    injective on the support of the BDDs it is applied to.

    Monotonicity is detected here: if the combined map is non-decreasing
    over the variable order (the common case — renames between
    interleaved instances of the same domain are monotone shifts), then
    {!replace} uses a linear-time order-preserving rebuild instead of
    the general ite-based reconstruction. *)

val map_is_monotone : varmap -> bool
(** Whether the order-preserving {!replace} fast path applies. *)

val replace : man -> varmap -> t -> t
(** Apply a renaming.  Correct for arbitrary (order-changing) maps;
    order-preserving maps take a direct [mk]-rebuild fast path. *)

val support : man -> t -> int list
(** Variables the function depends on, ascending. *)

val node_count : man -> t -> int
(** Number of DAG nodes reachable from the handle (terminals excluded). *)

val satcount : man -> vars:int array -> t -> float
(** Number of satisfying assignments over exactly the variables in
    [vars] (sorted ascending; must include the support). *)

val satcount_big : man -> vars:int array -> t -> Bignat.t
(** Exact version of {!satcount}. *)

val iter_sat : man -> vars:int array -> (bool array -> unit) -> t -> unit
(** Enumerate satisfying assignments over [vars] (sorted ascending,
    including the support); the callback receives the values of
    [vars] positionally.  The array is reused between calls. *)

(** {2 Arithmetic primitives}

    The paper's context-numbering scheme depends on two O(bits)
    constructions (§4.1): the BDD of a contiguous range of numbers, and
    "adding a constant to the contexts of the callers". Bit arrays are
    least-significant first. *)

val range : man -> bits:int array -> lo:int -> hi:int -> t
(** Numbers [x] with [lo <= x <= hi] over the bit-vector [bits]. *)

val const_value : man -> bits:int array -> int -> t
(** The minterm encoding one value over [bits]. *)

val add_const : man -> src:int array -> dst:int array -> delta:int -> t
(** The relation [dst = src + delta] (no overflow: assignments whose
    sum does not fit in [dst]'s width are excluded). *)

val equal_blocks : man -> src:int array -> dst:int array -> t
(** The relation [dst = src] between two equal-width bit blocks. *)

(** {2 Serialization}

    A reduced shared-DAG binary dump (BuDDy [bdd_save]-style): magic
    [WLBDD02], variable count, node count, topologically-ordered
    [(var, lo, hi)] triples, root ids, then a trailing CRC-32 of the
    whole frame.  Many roots share one DAG, so a set of relations
    persists with every common sub-function written once. *)

val serialize : man -> t list -> string
(** Dump the shared DAG reachable from [roots].  Root order is
    preserved by {!deserialize}. *)

val copy : man -> man -> t list -> t list
(** [copy src dst roots] re-interns the shared DAG reachable from
    [roots] directly into [dst] — semantically [serialize] piped into
    [deserialize], minus the intermediate byte string.  Both managers
    must agree on what the variable ids mean; [dst]'s variable space is
    extended if needed.  The results are unrooted in [dst]. *)

val deserialize : ?source:string -> man -> string -> t list
(** Rebuild the dumped functions in [m] (which need not be the dumping
    manager: nodes are re-interned through the constructor, so the
    result is reduced and hash-consed regardless of the manager's GC or
    table-growth history; the variable space is extended if needed).
    Returns the roots in dump order.

    Raises [Solver_error.Error (Bad_input _)] — with [source] as the
    file and the byte offset in the message — on truncation, bad magic,
    a CRC-32 mismatch (verified before any triple is parsed, so bit
    rot and torn writes surface as one early checksum error),
    out-of-range variables or edges, non-topological or non-reduced
    triples, and variable-order violations.  No partial result escapes:
    already-interned nodes are unreachable garbage for the next
    {!gc}. *)

(** {2 Memory management} *)

val add_root : man -> t ref -> unit
(** Register a location whose content must survive {!gc}; the
    collection rewrites it in place with the relocated handle. *)

val remove_root : man -> t ref -> unit

val add_root_list : man -> t list ref -> unit
(** Register a list of handles that must survive {!gc}.  The list is
    rewritten in place with the relocated handles, so reading through
    the ref always yields valid handles. *)

val remove_root_list : man -> t list ref -> unit

val add_root_fn : man -> (unit -> t list) -> unit
(** Register a function producing additional roots at collection time;
    useful for rooting caches whose contents change.  The produced
    handles are marked live but NOT rewritten: storage that must stay
    valid across a collection needs a ref, a list ref, or an
    {!on_remap} hook as well. *)

val on_remap : man -> ((t -> t) -> unit) -> unit
(** Register a hook run at the end of every collection.  The hook
    receives the relocation function — total on handles that were live
    at mark time, identity on terminals — and must rewrite any raw
    handles its layer stores privately (caches, prepared plans, ...).
    Applying it to a handle that was not reachable from any root is
    undefined. *)

val gc : man -> unit
(** Mark-and-compact collection from the registered roots: survivors
    are renumbered densely, clustered by variable level so the
    level-by-level recursive kernels touch consecutive arena pages
    (the locality that makes a byte-capped buffer pool workable), and
    every registered ref and list is rewritten and every {!on_remap}
    hook run.
    Never called implicitly during an operation; callers (e.g. the
    Datalog engine) invoke it between rule applications.  The operation
    cache survives collection: entries whose operands or result died
    are dropped, and the rest are rewritten to the new numbering. *)

(** {2 Resource governance} *)

val set_budget : man -> Budget.t option -> unit
(** Install (or clear) the budget this manager enforces.  Enforcement
    is amortized: the limits are tested on the fresh-allocation slow
    path of the node constructor, once every 4096 allocations, so
    cache-hit lookups pay nothing and a live-node
    limit can be overshot by at most the interval.  With no budget
    installed the only cost is one counter increment per fresh node. *)

val allocations : man -> int
(** Total fresh-node allocations since creation (never decreases;
    compare with {!live_nodes}, which GC shrinks).  This is the
    counter [Budget.max_allocations] is compared against. *)

val live_nodes : man -> int
(** Currently allocated (live) nodes, terminals excluded. *)

val peak_live_nodes : man -> int
(** High-water mark of {!live_nodes} — the paper's Figure 4 memory
    metric is the peak number of live BDD nodes. *)

val reset_peak : man -> unit
val gc_count : man -> int
val cache_stats : man -> int * int
(** (hits, misses) of the operation cache since creation, summed over
    all operation classes. *)

val cache_stats_by_class : man -> (string * int * int) list
(** Per-operation-class [(name, hits, misses)] counters, in a fixed
    order: and, or, diff, apply-other (xor/imp/biimp), not, ite, exist,
    relprod, replace. *)

(** {2 Arena observability}

    Counters for the paged node arena behind the manager: how big the
    table is, how much of it is resident, and how hard the buffer pool
    is working.  On an uncapped manager every page is resident and the
    eviction/spill counters stay 0 forever. *)

type arena_stats = {
  page_bits : int;  (** log2 of node slots per page *)
  pages_total : int;  (** pages ever allocated, resident or spilled *)
  pages_resident : int;
  pages_pinned : int;  (** terminal page, allocation tail, active pins *)
  peak_pages_resident : int;
  evictions : int;
  fault_ins : int;  (** spilled pages brought back on access *)
  spill_reads : int;
  spill_writes : int;
  table_bytes : int;  (** {!table_bytes} at sample time *)
  resident_bytes : int;  (** bytes of node pages currently in memory *)
}

val arena_stats : man -> arena_stats

val table_bytes : man -> int
(** Total node-table bytes: all arena pages (resident and spilled)
    plus the unique-table bucket array.  Spilled pages count, so this
    measures the problem size (the engine's GC trigger compares
    against it), while [max_bytes] bounds the memory footprint. *)

val to_dot : ?var_name:(int -> string) -> man -> t -> string
(** Graphviz rendering of the DAG: solid edges for high (1) branches,
    dashed for low (0); terminals as boxes.  [var_name] labels the
    decision nodes (default ["x<i>"]). *)

(** {2 Frozen snapshots and overlays}

    Multicore warm-query serving: {!freeze} snapshots the manager into
    an immutable value that any number of domains may read in parallel,
    and {!overlay} gives one domain an ordinary manager over it.  Every
    operation of this interface except {!gc} and {!freeze} runs on an
    overlay, through the same kernels the solver uses.

    {!freeze} collects first.  The collection renumbers the nodes but
    rewrites every registered root, list and {!on_remap} hook, so
    handles read back from their rooted homes after [freeze] returns denote the
    same functions in the snapshot, and answers computed on an overlay
    are bit-identical to the frozen manager's.  The snapshot is always
    fully resident (spilled pages are faulted in to be copied), so
    overlays never touch the buffer pool or the file system.

    Ownership rules: a [frozen] is immutable and freely shareable; an
    overlay belongs to exactly one domain at a time.  Handles an
    overlay returns are meaningful only on that overlay, except that
    snapshot handles are valid on every overlay of the snapshot.  No
    overlay operation writes shared state, takes a lock, or touches the
    originating manager. *)

type frozen
(** An immutable snapshot of a manager: its node pages after a
    collection and a read-only copy of its unique table.

    {b Lifecycle.}  A [frozen] value owns no external resources — it
    is a handful of plain OCaml arrays.  Releasing a snapshot is simply
    dropping the last reference to it and to every overlay built over
    it; the GC then reclaims the node arrays like any other heap block.
    A follower that hot-swaps snapshots drops its old overlays and the
    old [frozen] — the soak suite pins heap stability across ≥20 such
    swaps. *)

val freeze : man -> frozen
(** [freeze m] collects [m] (dropping garbage) and snapshots the node
    table.  Handles that were live at freeze time, read back from their
    registered roots, are valid snapshot handles; the manager itself
    stays fully usable afterwards, and its later mutations do not
    affect the snapshot.  Raises [Invalid_argument] on an overlay. *)

val frozen_live_nodes : frozen -> int
(** Live nodes captured by the snapshot (terminals excluded). *)

val frozen_bytes : frozen -> int
(** Heap footprint of the snapshot itself (node pages + hash buckets),
    in bytes — always fully resident; snapshots never page. *)

val overlay : frozen -> man
(** A fresh uncapped manager whose first arena pages are the snapshot's
    (shared, never written) and whose own nodes start on the next page.
    Its op cache has a fixed [2^14] entries.  {!live_nodes},
    {!allocations} and {!table_bytes} count only its own nodes and
    pages, so a {!Budget.t} installed with {!set_budget} bounds one
    request's work.  {!gc} and {!freeze} raise [Invalid_argument] on an
    overlay, since both would rewrite the shared pages. *)

val reset : man -> unit
(** Drop every node the overlay allocated — the per-request wholesale
    disposal the query daemon relies on.  Cache entries over snapshot
    handles only stay warm; entries naming a dropped node are
    invalidated.  The cost depends on the overlay's own nodes and
    cache, never on the snapshot's size.  Raises [Invalid_argument] on
    a plain manager. *)
