(** Class-hierarchy queries: subtyping, assignability (the paper's
    [aT] relation), virtual-dispatch tables (the [cha] relation of
    Algorithm 3), and thread detection. *)

val subclass_of : Ir.t -> Ir.class_id -> Ir.class_id -> bool
(** [subclass_of p sub sup]: reflexive, transitive. *)

val assignable : Ir.t -> Ir.class_id -> Ir.class_id -> bool
(** [assignable p t1 t2]: a value of type [t2] may be assigned to a
    variable declared [t1] — [t2] is a subclass of [t1], or [t1] is an
    interface [t2] (or an ancestor) implements (§2.3's "allowances for
    interfaces"). *)

val dispatch : Ir.t -> Ir.class_id -> string -> Ir.method_id option
(** [dispatch p c name]: the method invoked when [name] is called on a
    receiver of dynamic type [c] — the nearest declaration of [name] on
    the path from [c] to the root. *)

val is_thread : Ir.t -> Ir.class_id -> bool
(** Subclass of the built-in [Thread]. *)

val run_method : Ir.t -> Ir.class_id -> Ir.method_id option
(** The [run()] method a thread of this class executes. *)

val aT_tuples : Ir.t -> (int * int) list
(** All pairs [(sup, sub)] with [assignable sup sub] — the [aT]
    input relation. *)

val cha_tuples : Ir.t -> (int * string * int) list
(** All [(t, n, m)] with [dispatch t n = Some m], for every concrete
    class [t] and method name [n] visible on it. *)

val thread_dispatch_tuples : Ir.t -> (int * string * int) list
(** The [(t, "start", run)] entries that make [t.start()] dispatch to
    the thread's [run()] method — the paper's thread-to-run matching
    (§3 footnote 3), kept separate so Algorithm 7 can exclude it. *)
