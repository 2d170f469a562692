(* Warm-query evaluation over a *frozen* store.

   [make] projects the points-to relation once, then freezes the whole
   space: the packed node arrays and unique table become an immutable
   snapshot ([Bdd.frozen] / [Relation.frozen]) that any number of
   domains may read concurrently.  Every evaluator takes a per-domain
   [Bdd.overlay] of the snapshot — an ordinary manager with its own
   operation cache and nodes for query-local intermediates — so the
   hot apply/relprod path does no cross-domain writes and takes no
   locks.  One overlay belongs to exactly one domain; [serve_line]
   resets it after every request, reclaiming all intermediates
   wholesale. *)

type t = {
  store : Store.t;
  snapshot : Bdd.frozen;
  fpt : Relation.frozen;  (* "variable", "heap"; context already projected away *)
  frels : (string * Relation.frozen) list;  (* store order *)
  vdom : Domain.t;
  hdom : Domain.t;
}

let store t = t.store

type outcome = { ok : bool; command : string; lines : string list; count : int }

let help_lines =
  [
    "points-to <var>        heaps <var> may point to";
    "alias <var1> <var2>    heaps both may point to (aliased iff any)";
    "leak <heap>            variables that may point to <heap>";
    "modref <method>        mod and ref (heap, field) sites";
    "vuln                   stored vulnerability tuples";
    "refine                 stored refinement ratios";
    "count <relation>       tuple count of a stored relation";
    "relations              list stored relations";
    "health                 liveness probe (uptime, key, snapshot, pid)";
    "stats                  served-query counters and per-command latency";
    "help                   this summary";
    "quit                   end this connection";
  ]

let attr_domain fr name = (Relation.frozen_find_attr fr name).Relation.block.Space.dom

let make store =
  let pt_live =
    match Store.find store "vPC" with
    | Some vpc -> Relation.project vpc [ "variable"; "heap" ]
    | None -> (
      match Store.find store "vP" with
      | Some vp -> vp
      | None ->
        Solver_error.raise_bad_input ~file:"<store>" ~line:0
          "store has neither vPC nor vP: not a solved points-to store")
  in
  (* Freeze the space first: the compacting GC inside [Bdd.freeze]
     renumbers every surviving node and rewrites the relations'
     registered roots in place, so capturing [Relation.freeze] handles
     only afterwards yields handles valid against the snapshot.  After
     the freeze the live manager is never touched again. *)
  let snapshot = Bdd.freeze (Space.man (Store.space store)) in
  let fpt = Relation.freeze pt_live in
  let frels = List.map (fun r -> (Relation.name r, Relation.freeze r)) (Store.relations store) in
  { store; snapshot; fpt; frels; vdom = attr_domain fpt "variable"; hdom = attr_domain fpt "heap" }

let overlay t = Bdd.overlay t.snapshot

(* --- answers --- *)

let ok command lines = { ok = true; command; lines; count = List.length lines }
let err command fmt = Printf.ksprintf (fun msg -> { ok = false; command; lines = [ msg ]; count = 0 }) fmt

let resolve command dom what token k =
  match Domain.element_index dom token with
  | Some v -> k v
  | None -> err command "unknown %s %S (domain %s)" what token (Domain.name dom)

let require command t name k =
  match List.assoc_opt name t.frels with
  | Some r -> k r
  | None ->
    err command "relation %s is not in this store (re-solve with the matching query suffix)" name

let points_to t ov v =
  ok "points-to" (List.map (Domain.element_name t.hdom) (Queries.points_to ov t.fpt ~var:v))

let alias t ov v1 v2 =
  let shared = Queries.alias_heaps ov t.fpt ~v1 ~v2 in
  (* The yes/no verdict is a reply line like any other: it must be part
     of the advertised row count or length-prefixed clients desync. *)
  ok "alias"
    ((if shared = [] then "no" else "yes")
    :: List.map (Domain.element_name t.hdom) shared)

let leak t ov h =
  ok "leak" (List.map (Domain.element_name t.vdom) (Queries.pointed_by ov t.fpt ~heap:h))

let modref t ov m =
  require "modref" t "modset" @@ fun modset ->
  require "modref" t "refset" @@ fun refset ->
  let hdom = attr_domain modset "heap" and fdom = attr_domain modset "field" in
  let row tag (h, f) =
    Printf.sprintf "%s %s.%s" tag (Domain.element_name hdom h) (Domain.element_name fdom f)
  in
  ok "modref"
    (List.map (row "mod") (Queries.mod_ref_sites ov modset ~meth:m)
    @ List.map (row "ref") (Queries.mod_ref_sites ov refset ~meth:m))

let vuln t ov =
  require "vuln" t "vuln" @@ fun rel ->
  let doms = List.map (fun (a : Relation.attr) -> a.Relation.block.Space.dom) (Relation.frozen_attrs rel) in
  let row tup =
    String.concat " " (List.mapi (fun i d -> Domain.element_name d tup.(i)) doms)
  in
  ok "vuln" (List.map row (List.sort compare (Relation.frozen_tuples ov rel)))

let refine t ov =
  let per_clone = List.mem_assoc "activeC" t.frels in
  let count name = Relation.frozen_count ov (List.assoc name t.frels) in
  match Analyses.refinement_ratios count ~per_clone with
  | exception Not_found -> err "refine" "no refinement relations in this store (solve with --refine)"
  | r ->
    ok "refine"
      [
        Printf.sprintf "population %.0f" r.Analyses.population;
        Printf.sprintf "multi-typed %.2f%%" r.Analyses.multi_pct;
        Printf.sprintf "refinable %.2f%%" r.Analyses.refinable_pct;
      ]

let count t ov name =
  require "count" t name @@ fun rel ->
  ok "count" [ Printf.sprintf "%s %.0f" name (Relation.frozen_count ov rel) ]

let relations t ov =
  ok "relations"
    (List.map
       (fun (name, rel) ->
         Printf.sprintf "%s/%d %.0f" name (Relation.frozen_arity rel) (Relation.frozen_count ov rel))
       t.frels)

let split_ws line =
  String.split_on_char ' ' line |> List.concat_map (String.split_on_char '\t') |> List.filter (fun s -> s <> "")

let handle t ov line =
  let line = match String.index_opt line '#' with Some i -> String.sub line 0 i | None -> line in
  match split_ws line with
  | [] -> ok "" []
  | [ "points-to"; v ] -> resolve "points-to" t.vdom "variable" v (points_to t ov)
  | [ "alias"; v1; v2 ] ->
    resolve "alias" t.vdom "variable" v1 (fun a ->
        resolve "alias" t.vdom "variable" v2 (fun b -> alias t ov a b))
  | [ "leak"; h ] -> resolve "leak" t.hdom "heap" h (leak t ov)
  | [ "modref"; m ] ->
    require "modref" t "modset" @@ fun modset ->
    resolve "modref" (attr_domain modset "method") "method" m (modref t ov)
  | [ "vuln" ] -> vuln t ov
  | [ "refine" ] -> refine t ov
  | [ "count"; name ] -> count t ov name
  | [ "relations" ] -> relations t ov
  | [ "help" ] -> ok "help" help_lines
  | cmd :: _ -> err "error" "unknown or malformed query %S (try: help)" cmd

(* --- Request isolation, stats, and lifecycle ------------------------

   The hardened entry point the daemon drivers use: [serve_line] wraps
   [handle] with a per-request resource budget (installed on the
   caller's overlay for the duration of the request), an exception
   firewall, latency accounting, and the [health]/[stats] protocol
   commands.  [handle] itself stays pure so the §5 evaluation logic
   remains directly testable.

   Counters are [Atomic.t] and the latency table is mutex-guarded:
   with a worker pool, many domains record into one [server_stats]
   while [health]/[stats] read it. *)

type limits = {
  rq_timeout_s : float option;  (** wall-clock per request *)
  rq_max_allocs : int option;  (** fresh BDD node allocations per request *)
  rq_max_nodes : int option;  (** live-node growth allowed per request *)
}

let no_limits = { rq_timeout_s = None; rq_max_allocs = None; rq_max_nodes = None }

type latency = { mutable l_count : int; mutable l_total_us : float; mutable l_max_us : float }

type server_stats = {
  s_started : float;
  s_queries : int Atomic.t;
  s_ok : int Atomic.t;
  s_err : int Atomic.t;
  s_budget_kills : int Atomic.t;
  s_firewall_trips : int Atomic.t;
  s_connections : int Atomic.t;
  s_rejected : int Atomic.t;
  s_lat_mutex : Mutex.t;
  s_latency : (string, latency) Hashtbl.t;  (* guarded by s_lat_mutex *)
}

let make_stats () =
  {
    s_started = Unix.gettimeofday ();
    s_queries = Atomic.make 0;
    s_ok = Atomic.make 0;
    s_err = Atomic.make 0;
    s_budget_kills = Atomic.make 0;
    s_firewall_trips = Atomic.make 0;
    s_connections = Atomic.make 0;
    s_rejected = Atomic.make 0;
    s_lat_mutex = Mutex.create ();
    s_latency = Hashtbl.create 16;
  }

let record_latency stats cmd us =
  Mutex.lock stats.s_lat_mutex;
  let l =
    match Hashtbl.find_opt stats.s_latency cmd with
    | Some l -> l
    | None ->
      let l = { l_count = 0; l_total_us = 0.0; l_max_us = 0.0 } in
      Hashtbl.add stats.s_latency cmd l;
      l
  in
  l.l_count <- l.l_count + 1;
  l.l_total_us <- l.l_total_us +. us;
  if us > l.l_max_us then l.l_max_us <- us;
  Mutex.unlock stats.s_lat_mutex

let health t stats =
  ok "health"
    [
      "status ok";
      Printf.sprintf "uptime %.1fs" (Unix.gettimeofday () -. stats.s_started);
      Printf.sprintf "pid %d" (Unix.getpid ());
      Printf.sprintf "key %s" (Store.key t.store);
      (* Snapshot identity: with followers hot-swapping stores, a
         router or soak test must be able to ask "which save answered
         this?" — key alone cannot distinguish two saves of identical
         content. *)
      Printf.sprintf "snapshot %d" (Store.snapshot t.store);
      Printf.sprintf "relations %d" (List.length t.frels);
    ]

let stats_lines stats =
  let totals =
    [
      Printf.sprintf "uptime %.1fs" (Unix.gettimeofday () -. stats.s_started);
      Printf.sprintf "connections %d" (Atomic.get stats.s_connections);
      Printf.sprintf "rejected-busy %d" (Atomic.get stats.s_rejected);
      Printf.sprintf "queries %d" (Atomic.get stats.s_queries);
      Printf.sprintf "ok %d" (Atomic.get stats.s_ok);
      Printf.sprintf "err %d" (Atomic.get stats.s_err);
      Printf.sprintf "budget-exceeded %d" (Atomic.get stats.s_budget_kills);
      Printf.sprintf "internal-errors %d" (Atomic.get stats.s_firewall_trips);
    ]
  in
  Mutex.lock stats.s_lat_mutex;
  let per_command =
    Hashtbl.fold (fun cmd l acc -> (cmd, l) :: acc) stats.s_latency []
    |> List.sort compare
    |> List.map (fun (cmd, l) ->
           Printf.sprintf "command %s %d %.0fus avg %.0fus max" cmd l.l_count
             (l.l_total_us /. float_of_int l.l_count)
             l.l_max_us)
  in
  Mutex.unlock stats.s_lat_mutex;
  totals @ per_command

(* Memory observability: frozen snapshots never page, so the whole
   serving footprint is the snapshot itself plus the process peak. *)
let mem_lines t =
  let rss =
    match Meminfo.peak_rss_kb () with
    | Some kb -> [ Printf.sprintf "peak-rss-kib %d" kb ]
    | None -> []
  in
  Printf.sprintf "snapshot-bytes %d" (Bdd.frozen_bytes t.snapshot)
  :: Printf.sprintf "snapshot-nodes %d" (Bdd.frozen_live_nodes t.snapshot)
  :: rss

type served = { outcome : outcome; latency_us : float; close : bool }

let serve_line ?(limits = no_limits) ~stats t ov line =
  let t0 = Unix.gettimeofday () in
  let stripped = match String.index_opt line '#' with Some i -> String.sub line 0 i | None -> line in
  let outcome, close =
    match split_ws stripped with
    | [ "health" ] -> (health t stats, false)
    | [ "stats" ] -> (ok "stats" (stats_lines stats @ mem_lines t), false)
    | first_tokens -> (
      let budget =
        if limits = no_limits then None
        else
          Some
            (Budget.make ?timeout_s:limits.rq_timeout_s
               ?max_allocations:(Option.map (fun c -> Bdd.allocations ov + c) limits.rq_max_allocs)
               ?max_live_nodes:(Option.map (fun c -> Bdd.live_nodes ov + c) limits.rq_max_nodes)
               ())
      in
      Bdd.set_budget ov budget;
      (* The reset in [finally] reclaims every query-local node at
         once — aborted or not, the next request on this overlay starts
         with no nodes of its own.  (The frozen snapshot is untouched.) *)
      match
        Fun.protect
          ~finally:(fun () ->
            Bdd.set_budget ov None;
            Bdd.reset ov)
          (fun () -> handle t ov line)
      with
      | o -> (o, false)
      | exception Bdd.Limit_exceeded reason ->
        Atomic.incr stats.s_budget_kills;
        (err "budget" "request aborted: %s" (Budget.reason_to_string reason), false)
      | exception Solver_error.Error e ->
        (err "error" "%s" (Solver_error.to_string e), false)
      | exception e ->
        (* Exception firewall: an unexpected raise poisons only this
           connection, never the daemon. *)
        Atomic.incr stats.s_firewall_trips;
        let cmd = match first_tokens with c :: _ -> c | [] -> "?" in
        (err "internal" "unexpected exception in %S: %s (closing this connection)" cmd (Printexc.to_string e), true))
  in
  let latency_us = (Unix.gettimeofday () -. t0) *. 1e6 in
  if not (outcome.command = "" && outcome.lines = []) then begin
    Atomic.incr stats.s_queries;
    Atomic.incr (if outcome.ok then stats.s_ok else stats.s_err);
    record_latency stats (if outcome.command = "" then "?" else outcome.command) latency_us
  end;
  { outcome; latency_us; close }

(* --- Swappable server source ----------------------------------------

   The replication layer's hinge: a [Source.source] is a mutable cell
   holding the current frozen server, with a generation counter that
   lets readers detect a swap without taking the mutex on every
   request.  [swap] installs a new server atomically; workers notice
   the generation change at their next check, drop their overlay of
   the old snapshot, and build one over the new.  Once the last worker
   has moved on (and the follower has dropped its own reference), the
   old snapshot is unreachable and the GC reclaims it — see the
   lifecycle notes on [Bdd.frozen]. *)

module Source = struct
  type source = {
    mutable s_srv : t;  (* guarded by s_mu *)
    s_gen : int Atomic.t;
    s_mu : Mutex.t;
  }

  let create srv = { s_srv = srv; s_gen = Atomic.make 0; s_mu = Mutex.create () }
  let generation s = Atomic.get s.s_gen

  let get s =
    Mutex.lock s.s_mu;
    let v = (Atomic.get s.s_gen, s.s_srv) in
    Mutex.unlock s.s_mu;
    v

  let current s = snd (get s)

  let swap s srv =
    Mutex.lock s.s_mu;
    s.s_srv <- srv;
    (* Bumped inside the mutex: a reader seeing the new generation is
       guaranteed to read the new server under [get]. *)
    Atomic.incr s.s_gen;
    Mutex.unlock s.s_mu
end

(* --- Worker pool ----------------------------------------------------

   A fixed set of OCaml domains, each owning one overlay of the shared
   snapshot, pulling requests off a bounded queue.  [run] blocks
   the calling (connection) thread until its request's worker is done,
   so backpressure propagates naturally: the queue bound caps how far
   accepted connections can run ahead of evaluation.

   The pool reads its server through a [Source.source]: before every
   request (and whenever poked awake while idle) a worker compares the
   source generation with its own; on mismatch it replaces its overlay
   with one over the new snapshot.  A request
   already executing when a swap lands completes against the old
   snapshot — the swap is between requests, never under one. *)

module Pool = struct
  type job = {
    j_line : string;
    j_mutex : Mutex.t;
    j_cond : Condition.t;
    mutable j_result : served option;
  }

  type pool = {
    p_source : Source.source;
    p_jobs : job Queue.t;
    p_mutex : Mutex.t;
    p_can_pop : Condition.t;
    p_can_push : Condition.t;
    p_capacity : int;
    p_workers : int;
    mutable p_closed : bool;
    mutable p_domains : unit Stdlib.Domain.t list;
  }

  let draining =
    {
      outcome = err "shutdown" "daemon is draining; connection closing";
      latency_us = 0.0;
      close = true;
    }

  let finish job result =
    Mutex.lock job.j_mutex;
    job.j_result <- Some result;
    Condition.signal job.j_cond;
    Mutex.unlock job.j_mutex

  (* [serve_line] never raises by contract; the extra match is a
     belt-and-braces guard so a worker bug can never leave a
     connection thread blocked on a job that will not complete. *)
  let worker ?limits ~stats p () =
    let gen0, srv0 = Source.get p.p_source in
    let gen = ref gen0 and srv = ref srv0 in
    let ov = ref (overlay srv0) in
    (* On a generation change: drop this worker's overlay of the old
       snapshot and build one over the new server.  Called between
       requests and from the idle wait loop (after [poke]), so an old
       snapshot is released promptly even by workers with nothing to
       do. *)
    let refresh () =
      if Source.generation p.p_source <> !gen then begin
        let g, s = Source.get p.p_source in
        gen := g;
        srv := s;
        ov := overlay s
      end
    in
    let rec loop () =
      Mutex.lock p.p_mutex;
      while Queue.is_empty p.p_jobs && not p.p_closed do
        Condition.wait p.p_can_pop p.p_mutex;
        if Queue.is_empty p.p_jobs then refresh ()
      done;
      if Queue.is_empty p.p_jobs then Mutex.unlock p.p_mutex (* closed: drain done *)
      else begin
        let job = Queue.pop p.p_jobs in
        Condition.signal p.p_can_push;
        Mutex.unlock p.p_mutex;
        refresh ();
        (match serve_line ?limits ~stats !srv !ov job.j_line with
        | result -> finish job result
        | exception e ->
          finish job
            {
              outcome =
                err "internal" "worker failure: %s (closing this connection)" (Printexc.to_string e);
              latency_us = 0.0;
              close = true;
            });
        loop ()
      end
    in
    loop ()

  let create ?limits ~stats ~workers source =
    let workers = max 1 workers in
    let p =
      {
        p_source = source;
        p_jobs = Queue.create ();
        p_mutex = Mutex.create ();
        p_can_pop = Condition.create ();
        p_can_push = Condition.create ();
        p_capacity = max 16 (4 * workers);
        p_workers = workers;
        p_closed = false;
        p_domains = [];
      }
    in
    p.p_domains <- List.init workers (fun _ -> Stdlib.Domain.spawn (worker ?limits ~stats p));
    p

  let workers p = p.p_workers

  (* Wake idle workers so they notice a source swap now instead of at
     their next request: without this, a quiet follower would retain
     the old frozen space until traffic arrives. *)
  let poke p =
    Mutex.lock p.p_mutex;
    Condition.broadcast p.p_can_pop;
    Mutex.unlock p.p_mutex

  let run p line =
    let job =
      { j_line = line; j_mutex = Mutex.create (); j_cond = Condition.create (); j_result = None }
    in
    Mutex.lock p.p_mutex;
    while Queue.length p.p_jobs >= p.p_capacity && not p.p_closed do
      Condition.wait p.p_can_push p.p_mutex
    done;
    if p.p_closed then begin
      Mutex.unlock p.p_mutex;
      draining
    end
    else begin
      Queue.push job p.p_jobs;
      Condition.signal p.p_can_pop;
      Mutex.unlock p.p_mutex;
      Mutex.lock job.j_mutex;
      while job.j_result = None do
        Condition.wait job.j_cond job.j_mutex
      done;
      let r = Option.get job.j_result in
      Mutex.unlock job.j_mutex;
      r
    end

  (* Drain order: mark closed (new [run]s bounce with [draining]),
     wake everyone, then join.  Workers finish jobs already queued
     before exiting, so every accepted request gets its answer. *)
  let shutdown p =
    Mutex.lock p.p_mutex;
    p.p_closed <- true;
    Condition.broadcast p.p_can_pop;
    Condition.broadcast p.p_can_push;
    Mutex.unlock p.p_mutex;
    List.iter Stdlib.Domain.join p.p_domains;
    p.p_domains <- []
end

(* --- Snapshot follower ----------------------------------------------

   The watch half of `ptacli serve --follow`: poll the store directory
   for a new committed save and hot-swap the pool's source to it.

   Change detection is two-tier.  The fast path [stat]s the manifest —
   the single commit point of a save, always renamed into place, so
   any new save changes its (inode, mtime, size) triple — and does no
   file reads when the triple is unchanged.  On a triple change the
   chain tip's (key, snapshot) identity is read ([Store.read_tip]) and
   compared with what is currently served; only a genuinely different
   save proceeds to the load.

   Swap protocol, per candidate:

     load (reads and CRC-checks every file of the chain once)
       -> certification gate (require-certified only: the mark must
          name the tip that was loaded)
       -> make (project + freeze)
       -> Source.swap

   The gate and the reported identity are both taken from the loaded
   store, so a save that commits between the identity read and the
   load is gated (and reported) as what it is.  Any failure — torn
   manifest, checksum mismatch, structural error, missing mark —
   yields [Rejected] and the old snapshot keeps serving; the failed
   disk state's stat triple is remembered so one broken save is
   reported once, not every poll tick.  A later, complete save changes
   the triple again and is re-examined from scratch. *)

module Follow = struct
  (* The top-level server constructor; [Follow.make] below shadows the
     name. *)
  let server_of_store = make

  type outcome =
    | Unchanged
    | Swapped of { snapshot : int; key : string; seconds : float }
    | Rejected of { reason : string }

  type state = {
    f_dir : string;
    f_source : Source.source;
    f_require_certified : bool;
    mutable f_seen : string * int;  (* identity currently served *)
    mutable f_stat : (int * float * int) list;
        (* (ino, mtime, size) of the base manifest, the mark file and
           every committed layer manifest — so an incremental
           [save_delta] or a certification mark, which never touch the
           base manifest, still change the cheap probe *)
  }

  let manifest_stat dir = Store.tip_stat ~dir

  let make ?(require_certified = false) ~dir source =
    let srv = Source.current source in
    {
      f_dir = dir;
      f_source = source;
      f_require_certified = require_certified;
      f_seen = (Store.key srv.store, Store.snapshot srv.store);
      f_stat = manifest_stat dir;
    }

  let served_ident st = st.f_seen

  let reject st stat reason =
    (* Remember the broken state's stat triple: polls seeing the same
       bytes stay [Unchanged] instead of re-reporting. *)
    st.f_stat <- stat;
    Rejected { reason }

  let not_certified snapshot =
    Printf.sprintf "snapshot %d is not certified (require-certified; run `ptacli certify` and retry)" snapshot

  let poll st =
    let stat = manifest_stat st.f_dir in
    if stat = st.f_stat then Unchanged
    else
      match Store.read_tip ~dir:st.f_dir with
      | None -> reject st stat "manifest missing or unreadable (save in progress or torn?)"
      | Some tip when (tip.Store.key, tip.Store.snapshot) = st.f_seen ->
        (* Same save re-examined (e.g. the manifest was touched):
           nothing to do. *)
        st.f_stat <- stat;
        Unchanged
      | Some tip when st.f_require_certified && not tip.Store.certified ->
        (* The manifests and the mark file already say the tip is
           unvouched-for: reject without reading a data file. *)
        reject st stat (not_certified tip.Store.snapshot)
      | Some _ -> (
        let t0 = Unix.gettimeofday () in
        match Store.load ~dir:st.f_dir with
        | exception Solver_error.Error e -> reject st stat (Solver_error.to_string e)
        | store when st.f_require_certified && not (Store.certified store) ->
          (* The loaded tip carries no matching certification mark (a
             save committed after [read_tip]): it may be byte-perfect
             yet semantically wrong (a bad delta fold, a missed remap),
             which is exactly what this gate exists to keep off the
             wire.  The old snapshot keeps serving. *)
          reject st stat (not_certified (Store.snapshot store))
        | store -> (
          match server_of_store store with
          | srv ->
            Source.swap st.f_source srv;
            let key = Store.key store and snapshot = Store.snapshot store in
            st.f_seen <- (key, snapshot);
            st.f_stat <- stat;
            Swapped { snapshot; key; seconds = Unix.gettimeofday () -. t0 }
          | exception Solver_error.Error e -> reject st stat (Solver_error.to_string e)))
end
