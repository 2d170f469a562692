(** Deterministic fault injection for the robustness test-suite.

    Two families of hooks:

    - {b Budget checks} work through {!Budget.set_check_hook}: the hook
      fires at the start of every amortized budget check — inside
      [Bdd.mk] every 4096 fresh allocations, and
      in the Datalog engine between rule applications and at the top of
      each fixpoint round — so faults land at exactly the points where
      a real limit violation would be observed.

    - {b File-system write ops} work through {!fs_op}: the persistence
      layer ([Bddrel.Store]) announces every mutation it is about to
      make (create temp, write, fsync, rename, remove), and the
      {!crash_at_fs_op} harness simulates a [kill -9] at any one of
      them by raising {!Crashed} there — every syscall before the
      crash point has happened, nothing after it does.  The crash
      model is process death, not power loss: completed writes are
      assumed durable (which the store's fsync barriers make true of
      the real thing as well).

    Production code calls only {!fs_op}, which is a no-op unless a
    test installed a hook; nothing else here is used by production
    code paths. *)

val count_checks : Budget.t -> int ref
(** Install a counting hook and return the counter; replaces any
    previously installed hook. *)

val cancel_after_checks : Budget.t -> int -> unit
(** Flip the budget's cancellation flag at the [n]-th check (1-based):
    the solve aborts with [Budget.Cancelled] mid-flight, at a
    deterministic point.  Replaces any previously installed hook. *)

val corrupt_file : string -> at:int -> string -> unit
(** Overwrite the file in place starting at byte offset [at] with the
    given bytes — a deterministic input corruption for loader tests
    (the file keeps its length when the patch fits). *)

(** {2 Write-path crash points} *)

exception Crashed of string
(** Raised by the injected hook at the chosen crash point; the payload
    is the {!fs_op} label.  Write paths treat it like process death:
    they stop immediately and run {e no} cleanup (a killed process
    removes nothing), only releasing OS resources such as open file
    descriptors (which the kernel would reclaim). *)

val fs_op : string -> unit
(** Announce an imminent file-system mutation.  Called by production
    write paths immediately {e before} each mutation; a no-op unless a
    hook is installed.  Labels are ["<verb> <path>"], e.g.
    ["rename /x/store/manifest"]. *)

val set_fs_hook : (string -> unit) option -> unit
(** Install (or clear) the global {!fs_op} hook.  Tests only. *)

val record_fs_ops : (unit -> unit) -> string list
(** Run the action with a recording hook installed and return every
    {!fs_op} label in order — the enumeration of crash points a write
    path exposes.  The hook is removed afterwards. *)

val crash_at_fs_op : int -> (unit -> 'a) -> string option
(** [crash_at_fs_op n f] runs [f] with a hook that raises {!Crashed}
    at the [n]-th (1-based) {!fs_op}, simulating a kill at that exact
    point.  Returns [Some label] when the crash fired, [None] when [f]
    finished with fewer than [n] ops.  The hook is removed afterwards,
    even if [f] raises something else. *)
