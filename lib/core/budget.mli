(** Resource budgets for the solver runtime.

    Whaley & Lam's solve lives or dies by BDD behavior: a bad variable
    order or a pathological input makes the node table grow without
    bound.  A [Budget.t] turns resource exhaustion into a first-class,
    detectable outcome instead of an OOM kill: it carries limits on
    live BDD nodes, total node allocations, wall-clock time and
    fixpoint iterations, plus a cooperative cancellation flag.

    A budget is shared by every layer of one logical solve: the {!Bdd}
    manager checks the node/allocation/time limits on an amortized
    schedule inside [mk] (every 4096 fresh allocations), and the
    Datalog engine checks the iteration/time
    limits between rule applications.  Exceeding any limit raises
    [Bdd.Limit_exceeded] carrying the {!reason}, which
    [Datalog.Engine.solve] converts into a structured
    {!Solver_error.t}.

    Cancellation is {e cooperative}: {!cancel} only sets a flag, and
    the solver observes it at the same amortized check sites.  There
    are no signals or threads involved, so the node table and caches
    are always left in a consistent, reusable state — an aborted solve
    can be resumed by calling the engine again.

    Budgets are mutable (the cancellation flag, the fault-injection
    hook) and must not be shared between unrelated solves; create a
    fresh one per request.  Limits on allocations are compared against
    the {e per-manager} allocation counter, so one budget can be
    reused across the rungs of a degradation ladder where each rung
    builds a fresh manager. *)

type reason =
  | Live_nodes of { limit : int; actual : int }
      (** live BDD nodes exceeded [max_live_nodes] (checked every
          4096 allocations, so the actual count can overshoot the
          limit by at most that interval) *)
  | Allocations of { limit : int; actual : int }
      (** total fresh-node allocations exceeded [max_allocations] *)
  | Timeout of { limit_s : float }  (** wall-clock deadline passed *)
  | Iterations of { limit : int }  (** fixpoint round limit reached *)
  | Cancelled  (** {!cancel} was called *)

type t

val make :
  ?max_live_nodes:int ->
  ?max_allocations:int ->
  ?max_iterations:int ->
  ?timeout_s:float ->
  unit ->
  t
(** All limits default to absent (unlimited).  [timeout_s] is relative
    to the call: the absolute deadline is computed here. *)

val unlimited : unit -> t
(** A fresh budget with no limits — still cancellable. *)

val cancel : t -> unit
(** Cooperative: sets a flag the solver polls at its amortized check
    sites; the solve aborts with {!Cancelled} at the next check. *)

val is_cancelled : t -> bool

(** {2 Checks}

    Called by the solver layers; each returns the first violated
    limit, or [None].  All of them start by running the
    fault-injection hook (see {!set_check_hook}), then test
    cancellation and the deadline. *)

val check_interrupt : t -> reason option
(** Cancellation and deadline only — the per-rule-application check in
    the Datalog engine. *)

val check_nodes : t -> live:int -> allocs:int -> reason option
(** Interrupts plus the node-count and allocation limits — the
    amortized check inside [Bdd.mk]. *)

val check_iterations : t -> iterations:int -> reason option
(** Interrupts plus the fixpoint-round limit — checked by the engine
    at the top of every semi-naive round. *)

(** {2 Fault injection}

    Deterministic hooks for the robustness test-suite (see {!Faults}):
    the hook runs at the start of {e every} check above, before any
    limit is tested, so it can flip the cancellation flag or count
    check sites to trigger failures at a precise point of the solve.
    Production code never sets a hook. *)

val set_check_hook : t -> (t -> unit) option -> unit

val reason_to_string : reason -> string
