(** Fault-tolerant query router: the thin tier between clients and a
    fleet of [ptacli serve] followers, speaking the same line protocol
    on both sides.

    Each client line is relayed to one healthy backend and the reply
    (header + body rows) is relayed back verbatim.  Robustness around
    the relay: per-backend circuit breakers (closed / open /
    half-open), bounded retry with exponential backoff + full jitter,
    and failover to a different backend on connect failure, mid-stream
    EOF, per-attempt timeout, or an explicit [err busy]/[err shutdown]
    reply.  Semantic errors from a backend (unknown variable, missing
    relation) are relayed immediately — the backend answered them
    authoritatively.  Only when every attempt is exhausted does the
    client see a synthesized [err unavailable].

    Thread-free by construction (Unix + Mutex/Atomic only): the accept
    loop and periodic {!probe_all} thread live in the ptacli driver.
    Every function is safe to call concurrently. *)

type policy = {
  connect_timeout_s : float;
  request_timeout_s : float;  (** per forwarded attempt, send + full reply *)
  health_timeout_s : float;  (** per {!probe_all} probe *)
  retries : int;  (** extra attempts after the first *)
  backoff_base_s : float;  (** retry [i] sleeps [base * 2^(i-1)], jittered *)
  backoff_max_s : float;
  breaker_threshold : int;  (** consecutive failures that open a breaker *)
  breaker_cooldown_s : float;  (** open duration before a half-open trial *)
}

val default_policy : policy

type t

val create : ?policy:policy -> string list -> t
(** [create addrs] routes over the given unix-socket paths.  Breakers
    start closed; probe state is unknown until the first
    {!probe_all}.  Raises [Invalid_argument] on an empty list. *)

(** Per-client-connection state: a cached (sticky) backend connection
    and a private jitter source.  One session belongs to one
    connection-handler thread at a time. *)
type session

val session : seed:int -> session
(** [seed] differentiates jitter streams across concurrent clients
    (e.g. the connection id). *)

val close_session : session -> unit
(** Close the cached backend connection, if any. *)

(** One framed reply: the backend's header line (or a synthesized
    router header) and its body lines — [rows] lines after [ok],
    exactly one message line after [err]. *)
type reply = { rp_header : string; rp_body : string list }

val handle : t -> session -> string -> reply option
(** One client line: [None] for blank/comment lines (no reply owed);
    [stats] and [health] answered locally from the router's view of
    the fleet (counters, per-backend breaker/probe/identity state;
    [health] says [status ok] while at least one breaker is closed,
    [degraded] otherwise); anything else relayed with
    retry/backoff/failover per the policy, total failure yielding an
    [err unavailable] reply.  Never raises. *)

val probe_all : t -> unit
(** Health-probe every backend once ([health] with
    [health_timeout_s]): refreshes the per-backend probe state and
    (key, snapshot) identity, closes the breaker of a backend that
    answers, and counts a failure (possibly opening the breaker) for
    one that does not.  The driver calls this from a periodic prober
    thread — it is also the breaker's recovery path when client
    traffic alone would not re-trial an open backend. *)

val stats_lines : t -> string list
(** The router [stats] body: uptime and request/relayed/retries/
    failovers/breaker-trips/unavailable counters, then one
    [backend <addr> state=... probe=... key=... snapshot=...] line per
    backend. *)
