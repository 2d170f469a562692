(** 1-CFA context numbering — the k-limited alternative the paper
    contrasts its cloning scheme with (§1.1: "Shivers proposed the
    concept of k-CFA whereby one remembers only the last k call
    sites").

    A method's context is its most recent call site (entry methods get
    the distinguished context 1), so the context count is bounded by
    the number of invocation sites, but distinct call {e paths} ending
    at the same site are merged.  The result plugs into the same
    Algorithm 5 Datalog program as explicit [IEC]/[mC] tuples
    ({!Analyses.run_1cfa}), making full-cloning vs 1-CFA a one-variable
    ablation. *)

type t

val number : Jir.Ir.t -> edges:Callgraph.edge list -> roots:Jir.Ir.method_id list -> t

val csize : t -> int
(** Context domain size: 0 unused, 1 = entry, then one per invocation
    site. *)

val iec_tuples : t -> (int * int * int * int) list
(** [(caller_ctx, invoke, callee_ctx, target)] — callee context is
    determined by the invocation site alone. *)

val mc_tuples : t -> (int * int) list
