(** Query server over a loaded {!Bddrel.Store}: the warm half of
    [ptacli serve].

    A {!t} wraps a persisted analysis result and answers the §5
    questions with {!Queries} relational algebra only — no Datalog
    engine, no re-solve.  At {!make} time the solved space is
    {e frozen}: an immutable snapshot any number of OCaml domains can
    read concurrently.  Each evaluation runs on a per-domain
    {!Bdd.overlay} of the snapshot (its own operation cache and nodes
    for query-local intermediates), so a {!Pool} of worker domains
    serves queries genuinely in parallel with no locks on the
    evaluation path.

    Protocol (whitespace-separated tokens, one query per line):

    {v
    points-to <var>        heaps <var> may point to
    alias <var1> <var2>    heaps both may point to (aliased iff any)
    leak <heap>            variables that may point to <heap>   (§5.1)
    modref <method>        mod and ref (heap, field) sites      (§5.4)
    vuln                   stored §5.2 vulnerability tuples
    refine                 stored §5.3 refinement ratios
    count <relation>       tuple count of a stored relation
    relations              list stored relations
    help                   this summary
    v}

    Elements are named by their [.map] entries when the store has
    them, or by decimal ordinals ({!Bddrel.Domain.element_index}). *)

type t

val make : Bddrel.Store.t -> t
(** Prepare the server: locates the points-to relation ([vPC], whose
    context attribute is projected away once up front, or [vP]),
    freezes every stored relation, then freezes the space.  The live
    manager is never touched again after this.  Raises
    [Solver_error.Error (Bad_input _)] when the store has neither
    [vPC] nor [vP]. *)

val store : t -> Bddrel.Store.t

val overlay : t -> Bdd.man
(** A fresh {!Bdd.overlay} of the frozen space to evaluate on.  One
    overlay belongs to exactly one domain at a time; make one per
    worker. *)

type outcome = {
  ok : bool;  (** false: parse/lookup error, [lines] is the message *)
  command : string;  (** the recognized command word, or ["error"] *)
  lines : string list;  (** result rows (or error text), ready to print *)
  count : int;  (** number of result rows ([0] when [ok] is false) *)
}

val handle : t -> Bdd.man -> string -> outcome
(** Evaluate one protocol line on the given overlay.  Never raises on
    bad input — unknown commands, unknown element names, and missing
    stored relations come back as [ok = false] with an explanatory
    message.  Blank lines and [#] comments yield an empty successful
    outcome.  Intermediates accumulate in the overlay; the caller
    decides when to {!Bdd.reset} ({!serve_line} does it per
    request). *)

(** {2 Request isolation and daemon lifecycle}

    {!serve_line} is what the daemon drivers call per request: it
    wraps {!handle} with a per-request resource budget, an exception
    firewall, latency/error accounting, and the [health]/[stats]
    liveness commands, so one pathological or malformed query can
    never wedge or kill the daemon. *)

type limits = {
  rq_timeout_s : float option;  (** wall-clock seconds per request *)
  rq_max_allocs : int option;
      (** fresh BDD node allocations one request may make (enforced on
          the worker's overlay at its amortized check sites) *)
  rq_max_nodes : int option;  (** overlay live-node growth one request may cause *)
}

(** Counters are atomic and the latency table mutex-guarded: with a
    worker pool, many domains record into one [server_stats] while
    [health]/[stats] read it. *)
type server_stats = {
  s_started : float;
  s_queries : int Atomic.t;  (** protocol queries answered (ok or err) *)
  s_ok : int Atomic.t;
  s_err : int Atomic.t;
  s_budget_kills : int Atomic.t;  (** requests aborted by the per-request budget *)
  s_firewall_trips : int Atomic.t;  (** unexpected exceptions caught by the firewall *)
  s_connections : int Atomic.t;  (** maintained by the socket driver *)
  s_rejected : int Atomic.t;  (** connections refused with [err busy] *)
  s_lat_mutex : Mutex.t;  (** guards [s_latency] *)
  s_latency : (string, latency) Hashtbl.t;  (** per-command latency *)
}

and latency = { mutable l_count : int; mutable l_total_us : float; mutable l_max_us : float }

val make_stats : unit -> server_stats

val stats_lines : server_stats -> string list
(** The [stats] command body: totals then per-command
    count/avg/max latency lines; also printed at graceful shutdown. *)

type served = {
  outcome : outcome;
  latency_us : float;
  close : bool;
      (** the firewall tripped: send the outcome, then close this
          connection (the daemon itself lives on) *)
}

val serve_line : ?limits:limits -> stats:server_stats -> t -> Bdd.man -> string -> served
(** Evaluate one request under isolation, on the caller's overlay:

    - [health] / [stats] are answered from [stats] without touching
      the store;
    - any other line runs through {!handle} with a fresh
      {!Budget.t} (from [limits], resolved against the overlay's
      current counters) installed on the overlay — exceeding it yields
      an [err budget] outcome; without [limits] no budget is
      installed;
    - a structured loader error yields [err error];
    - any other exception is the firewall case: [err internal] with
      [close = true].

    Whatever the outcome, the overlay is {!Bdd.reset} afterwards:
    every query-local node is reclaimed wholesale and the next request
    starts with no nodes of its own.  Latency and outcome counters are
    recorded into [stats].  Never raises.

    Determinism: over one frozen space, a given query sequence on a
    fresh overlay is fully deterministic — allocation trajectory, cache
    behaviour, and budget-kill messages included — which is what makes
    parallel answers bit-comparable to a single-threaded run. *)

(** {2 Swappable server source}

    The replication hinge: a mutable cell holding the currently-served
    {!t}, with a generation counter so pool workers detect a swap with
    one atomic read per request.  {!Source.swap} is what a follower
    calls after loading and freezing a new snapshot; in-flight
    requests finish against the old server, every later request runs
    against the new one, and the old frozen space is GC-reclaimed once
    the last worker has replaced its overlay (see {!Bdd.frozen}). *)
module Source : sig
  type source

  val create : t -> source

  val generation : source -> int
  (** Incremented by every {!swap}; starts at 0. *)

  val get : source -> int * t
  (** The current (generation, server) pair, read consistently. *)

  val current : source -> t

  val swap : source -> t -> unit
  (** Atomically install a new server and bump the generation.  Safe
      against concurrent {!get}/{!current} from any thread. *)
end

(** {2 Worker pool}

    A fixed set of OCaml domains, each owning one overlay of the shared
    frozen space, pulling requests off a bounded queue.  Connection
    threads call {!Pool.run} and block until their answer is ready, so
    the queue bound is natural backpressure.

    Workers read the server through a {!Source.source}: before each
    request (and when {!Pool.poke}d while idle) they compare
    generations and, on a swap, replace their overlay with one over the
    new server — the hot-swap is always between requests, never under
    one. *)
module Pool : sig
  type pool

  val create : ?limits:limits -> stats:server_stats -> workers:int -> Source.source -> pool
  (** Spawn [workers] (at least 1) domains, each with its own overlay
      of the source's current server.  The queue holds at most
      [max 16 (4 * workers)] pending requests. *)

  val workers : pool -> int

  val run : pool -> string -> served
  (** Enqueue one request line and wait for its result.  Blocks while
      the queue is full.  After {!shutdown} has begun, returns an
      [err shutdown] outcome with [close = true] instead of
      enqueueing.  Safe to call from many threads. *)

  val poke : pool -> unit
  (** Wake idle workers so they notice a {!Source.swap} immediately
      (and release the old frozen space) instead of at their next
      request. *)

  val shutdown : pool -> unit
  (** Drain and join: new {!run}s bounce, already-queued requests are
      still answered, then the worker domains exit and are joined.
      Idempotent. *)
end

(** {2 Snapshot follower}

    The watch half of [ptacli serve --follow]: poll the store
    directory and hot-swap the source when a new committed save
    appears.  Change detection stats the base manifest, the
    certification mark file {e and} every committed delta-layer
    manifest ({!Bddrel.Store.tip_stat}) — each one is its write's
    single commit point, so full saves, incremental [save_delta]
    appends and new marks are all noticed — then compares the
    chain-tip identity ({!Bddrel.Store.read_tip}) with the served one
    before doing any real work.  A new candidate is loaded (every file
    of its chain read once and checksum- and structure-checked), gated
    and frozen before {!Source.swap}; any failure leaves the old
    snapshot serving and reports [Rejected] once per distinct broken
    disk state. *)
module Follow : sig
  type outcome =
    | Unchanged
    | Swapped of { snapshot : int; key : string; seconds : float }
        (** the identity of the store that was loaded and swapped in;
            [seconds] = load + freeze wall time *)
    | Rejected of { reason : string }

  type state

  val make : ?require_certified:bool -> dir:string -> Source.source -> state
  (** Start following [dir]; the source's current server is assumed to
      be the store currently on disk there (the driver loads it before
      calling this).  With [require_certified] (default off), a
      candidate whose tip the manifests and mark file show unmarked
      ({!Bddrel.Store.tip}'s [certified]) is [Rejected] before any
      data file is read, and one that is loaded is swapped in only
      when the loaded store carries a certification mark naming its
      own tip ({!Bddrel.Store.certified}); otherwise the old snapshot
      keeps serving — byte-perfect but semantically unvouched-for
      saves never reach the wire, even when a save commits between the
      identity read and the load. *)

  val served_ident : state -> string * int
  (** The [(key, snapshot)] identity last swapped in (or initial). *)

  val poll : state -> outcome
  (** One poll tick.  Cheap when nothing changed (one [stat] per chain
      manifest).  On
      [Swapped] the source already holds the new server — the driver
      should {!Pool.poke} and log; on [Rejected] the old server keeps
      serving.  Never raises. *)
end
