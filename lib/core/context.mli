(** Algorithm 4: context numbering for the cloned call graph.

    Every reduced (SCC-collapsed) acyclic call path to a method defines
    one of its contexts.  Methods in a strongly connected component
    share their context count; a component's count is the sum of its
    callers' counts over all incoming invocation edges (+1 entry
    context if it contains a root), so counts grow exponentially and
    are tracked exactly with {!Bignat}.  Each method is assigned the
    contiguous context range [1 .. count], and each invocation edge is
    assigned a constant {e offset}: callers' clone [x] invokes callee
    clone [x + offset].  Contiguous ranges and constant offsets are
    exactly what the BDD primitives {!Bdd.range} and {!Bdd.add_const}
    encode in O(bits) — the key to the paper's scalability (§4.1).

    Counts beyond [2^max_bits - 1] are merged into the top context,
    mirroring the paper's handling of pmd's 5 x 10^23 paths with a
    63-bit JavaBDD limit (§6.1). *)

type t

val number : ?max_bits:int -> Jir.Ir.t -> edges:Callgraph.edge list -> roots:Jir.Ir.method_id list -> t
(** [max_bits] defaults to 61 (an OCaml-int-safe stand-in for the
    paper's 63-bit limit). *)

val scc_of_method : t -> Jir.Ir.method_id -> int option
(** [None] for methods unreachable from the roots. *)

val method_contexts : t -> Jir.Ir.method_id -> int
(** Clamped context count of a reachable method; 0 if unreachable. *)

val method_contexts_exact : t -> Jir.Ir.method_id -> Bignat.t

val total_paths : t -> Bignat.t
(** Total number of clones — Figure 3's "C.S. Paths" column. *)

val max_contexts : t -> Bignat.t
(** Largest per-method context count. *)

val merged : t -> bool
(** Whether any count hit the cap. *)

val csize : t -> int
(** Context domain size: clamped maximum count + 1 (context 0 is
    unused; contexts are numbered from 1 as in the paper). *)

(** {2 BDD construction} *)

val iec_bdd :
  t -> Space.t -> caller:Space.block -> invoke:Space.block -> callee:Space.block -> target:Space.block -> Bdd.t
(** The context-sensitive invocation edges
    [IEC(caller : C, invoke : I, callee : C, target : M)], built edge
    by edge from range/offset primitives. *)

val mc_bdd : t -> Space.t -> context:Space.block -> target:Space.block -> Bdd.t
(** [mC(c, m)]: method [m] runs in context [c] — the contiguous range
    [1 .. count m] for every reachable method. *)

(** {2 Explicit enumeration}

    Exponential in general — these exist for differential testing of
    the BDD construction and for the naive reference evaluator, and
    must only be called when counts are small. *)

val iec_tuples : t -> (int * int * int * int) list
(** All [(caller_ctx, invoke, callee_ctx, target)] tuples of {!iec_bdd}. *)

val mc_tuples : t -> (int * int) list
