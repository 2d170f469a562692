(* Soak test for the hardened request path ([Pta.Serve.serve_line]):
   a mid-size hand-built points-to store takes ~1k mixed queries —
   valid, malformed, unknown names, budget-blowing, and one that
   raises an unexpected exception — and the server must

   - answer every valid query identically to an independent tuple-list
     oracle,
   - kill over-budget requests with [err budget] and answer the very
     next query correctly,
   - contain unexpected exceptions to [err internal] + connection
     close (the firewall), never a crash,
   - keep its file-descriptor count flat, and
   - keep its stats counters consistent with what was served. *)

module Serve = Pta.Serve

let tmp_dir name =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) (Printf.sprintf "whalelam-%s-%d" name (Unix.getpid ())) in
  ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir)));
  dir

let count_fds () =
  if Sys.file_exists "/proc/self/fd" then Some (Array.length (Sys.readdir "/proc/self/fd")) else None

let nv = 48
let nh = 131072

(* The oracle: plain (var, heap) tuple lists, built once, queried with
   list operations — no BDDs anywhere near it. *)
let heaps_of = Array.make nv []

let tuples =
  let rng = Random.State.make [| 0x5EED; 42 |] in
  let tbl = Hashtbl.create 4096 in
  (* v0 and v1 each point to 60k random heaps in a sparse 128k domain: [alias v0 v1]
     must then build a large fresh intersection BDD — the
     budget-blowing query (warm point lookups barely allocate). *)
  for v = 0 to 1 do
    let start = Hashtbl.length tbl in
    while Hashtbl.length tbl - start < 60000 do
      Hashtbl.replace tbl (v, Random.State.int rng nh) ()
    done
  done;
  (* Every other variable points to a handful. *)
  for v = 2 to nv - 1 do
    for _ = 1 to 1 + Random.State.int rng 8 do
      Hashtbl.replace tbl (v, Random.State.int rng nh) ()
    done
  done;
  let all = List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) tbl []) in
  List.iter (fun (v, h) -> heaps_of.(v) <- h :: heaps_of.(v)) all;
  all

let store_dir =
  lazy
    (let dir = tmp_dir "serve-soak" in
     let sp = Space.create () in
     let vdom = Domain.make ~name:"V" ~size:nv ~element_names:(Array.init nv (Printf.sprintf "v%d")) () in
     let hdom = Domain.make ~name:"H" ~size:nh ~element_names:(Array.init nh (Printf.sprintf "h%d")) () in
     let vb = Space.alloc sp vdom and hb = Space.alloc sp hdom in
     let vp =
       Relation.of_tuples sp ~name:"vP"
         [ { Relation.attr_name = "variable"; block = vb }; { Relation.attr_name = "heap"; block = hb } ]
         (List.map (fun (v, h) -> [| v; h |]) tuples)
     in
     (* A "modset" relation *without* a "method" attribute: [modref]
        queries against it raise Not_found deep inside [handle] — the
        protocol-reachable trigger for the exception firewall. *)
     let modset =
       Relation.of_tuples sp ~name:"modset"
         [ { Relation.attr_name = "x"; block = vb }; { Relation.attr_name = "y"; block = hb } ]
         [ [| 1; 2 |] ]
     in
     Store.save ~dir ~key:"soak-key" ~config:[] ~space:sp ~relations:[ vp; modset ];
     dir)

let heap_names hs = List.map (Printf.sprintf "h%d") hs
let sorted = List.sort compare

(* Generous budgets that every request runs under without tripping;
   tight ones that the v0 fan-out must blow. *)
let roomy = { Serve.rq_timeout_s = Some 30.0; rq_max_allocs = Some 2_000_000; rq_max_nodes = None }
let tight = { Serve.rq_timeout_s = Some 30.0; rq_max_allocs = Some 64; rq_max_nodes = None }

let check_valid (o : Serve.outcome) q =
  if not o.Serve.ok then Alcotest.failf "query %S failed: %s" q (String.concat " | " o.Serve.lines)

let check_points_to (o : Serve.outcome) q v =
  check_valid o q;
  Alcotest.(check (list string)) ("answer: " ^ q) (sorted (heap_names heaps_of.(v))) (sorted o.Serve.lines)

let check_alias (o : Serve.outcome) q v1 v2 =
  check_valid o q;
  let shared = List.filter (fun h -> List.mem h heaps_of.(v2)) heaps_of.(v1) in
  (match o.Serve.lines with
  | head :: rest ->
    Alcotest.(check string) ("verdict: " ^ q) (if shared = [] then "no" else "yes") head;
    Alcotest.(check (list string)) ("heaps: " ^ q) (sorted (heap_names shared)) (sorted rest)
  | [] -> Alcotest.failf "query %S: empty reply" q)

let check_leak (o : Serve.outcome) q h =
  check_valid o q;
  let vars = List.filter (fun v -> List.mem h heaps_of.(v)) (List.init nv Fun.id) in
  Alcotest.(check (list string)) ("answer: " ^ q) (sorted (List.map (Printf.sprintf "v%d") vars)) (sorted o.Serve.lines)

let test_soak () =
  let st = Store.load ~dir:(Lazy.force store_dir) in
  let srv = Serve.make st in
  let stats = Serve.make_stats () in
  let ov = Serve.overlay srv in
  let ask ?(limits = roomy) line = Serve.serve_line ~limits ~stats srv ov line in
  let fd0 = count_fds () in
  let rng = Random.State.make [| 0xBADCAFE |] in
  let malformed =
    [| ""; "   "; "# just a comment"; "bogus"; "points-to"; "alias v1"; "points-to nosuchvar"; "leak h999999"; "count nope"; "vuln"; "refine" |]
  in
  let expected_served = ref 0 in
  let soak_rounds = 1000 in
  for i = 1 to soak_rounds do
    (* Normal-pool variables exclude the two fan-out ones. *)
    let rv ?(lo = 2) () = lo + Random.State.int rng (nv - lo) in
    match i mod 10 with
    | 0 | 1 | 2 ->
      let v = rv () in
      let q = Printf.sprintf "points-to v%d" v in
      incr expected_served;
      check_points_to (ask q).Serve.outcome q v
    | 3 | 4 ->
      let v1 = rv () and v2 = rv () in
      let q = Printf.sprintf "alias v%d v%d" v1 v2 in
      incr expected_served;
      check_alias (ask q).Serve.outcome q v1 v2
    | 5 ->
      (* A heap some variable really points to, so leak lists are
         usually non-empty. *)
      let v = rv () in
      let h = List.nth heaps_of.(v) (Random.State.int rng (List.length heaps_of.(v))) in
      let q = Printf.sprintf "leak h%d" h in
      incr expected_served;
      check_leak (ask q).Serve.outcome q h
    | 6 ->
      incr expected_served;
      let o = (ask "count vP").Serve.outcome in
      check_valid o "count vP";
      Alcotest.(check (list string)) "count vP" [ Printf.sprintf "vP %d" (List.length tuples) ] o.Serve.lines
    | 7 | 8 ->
      (* Malformed / unknown input: the reply is an error, the server
         survives, and the connection stays open. *)
      let q = malformed.(Random.State.int rng (Array.length malformed)) in
      let s = ask q in
      if not (s.Serve.outcome.Serve.command = "" && s.Serve.outcome.Serve.lines = []) then begin
        incr expected_served;
        Alcotest.(check bool) (Printf.sprintf "%S is an error" q) false s.Serve.outcome.Serve.ok
      end;
      Alcotest.(check bool) (Printf.sprintf "%S does not close" q) false s.Serve.close
    | _ ->
      incr expected_served;
      let q = if i mod 2 = 0 then "health" else "stats" in
      let o = (ask q).Serve.outcome in
      check_valid o q;
      if q = "health" then
        Alcotest.(check string) "health status" "status ok" (List.hd o.Serve.lines)
  done;
  (* Budget isolation: the fan-out query dies with [err budget] under
     tight limits, and the very next (normal) query still answers
     correctly off a clean baseline. *)
  for _ = 1 to 25 do
    let s = ask ~limits:tight "alias v0 v1" in
    incr expected_served;
    Alcotest.(check string) "budget kill" "budget" s.Serve.outcome.Serve.command;
    Alcotest.(check bool) "budget kill is an error" false s.Serve.outcome.Serve.ok;
    Alcotest.(check bool) "budget kill keeps the connection" false s.Serve.close;
    let v = 2 + Random.State.int rng (nv - 2) in
    let q = Printf.sprintf "points-to v%d" v in
    incr expected_served;
    check_points_to (ask q).Serve.outcome q v
  done;
  Alcotest.(check bool) "budget kills recorded" true (Atomic.get stats.Serve.s_budget_kills >= 25);
  (* The untight fan-out still works: correctness is not sacrificed. *)
  incr expected_served;
  check_points_to (ask "points-to v0").Serve.outcome "points-to v0" 0;
  (* Firewall: the crafted modset relation makes [modref] raise
     Not_found inside evaluation; the reply is [err internal] with a
     connection close, and the server keeps answering. *)
  for _ = 1 to 3 do
    let s = ask "modref v1" in
    incr expected_served;
    Alcotest.(check string) "firewall reply" "internal" s.Serve.outcome.Serve.command;
    Alcotest.(check bool) "firewall closes the connection" true s.Serve.close;
    incr expected_served;
    check_points_to (ask "points-to v3").Serve.outcome "points-to v3" 3
  done;
  Alcotest.(check int) "firewall trips recorded" 3 (Atomic.get stats.Serve.s_firewall_trips);
  (* Descriptor stability across the whole soak. *)
  (match (fd0, count_fds ()) with
  | Some before, Some after -> Alcotest.(check int) "fd count stable" before after
  | _ -> ());
  (* Stats consistency. *)
  Alcotest.(check int) "queries counted" !expected_served (Atomic.get stats.Serve.s_queries);
  Alcotest.(check int) "ok + err = queries" (Atomic.get stats.Serve.s_queries)
    (Atomic.get stats.Serve.s_ok + Atomic.get stats.Serve.s_err);
  let latency_total =
    Hashtbl.fold (fun _ (l : Serve.latency) acc -> acc + l.Serve.l_count) stats.Serve.s_latency 0
  in
  Alcotest.(check int) "latency rows cover every query" (Atomic.get stats.Serve.s_queries) latency_total;
  let lines = Serve.stats_lines stats in
  Alcotest.(check bool) "stats_lines mentions budget kills" true
    (List.exists
       (fun l -> l = Printf.sprintf "budget-exceeded %d" (Atomic.get stats.Serve.s_budget_kills))
       lines)

(* --- Parallel soak --------------------------------------------------

   Eight concurrent "clients" (domains), each with its own overlay,
   run the *same* deterministic 1k mixed valid/malformed query mix
   plus a tail of budget-kill and firewall pairs.  Over a frozen space
   a given query sequence on a fresh overlay is fully deterministic
   — including budget-kill messages — so every domain's full answer
   transcript must be bit-identical to the single-threaded reference
   run, the shared stats must add up exactly, and the fd count must
   stay flat (no hidden per-domain descriptors). *)

let n_clients = 8
let kill_pairs = 5
let firewall_pairs = 2

(* The deterministic mix: (line, use_tight_limits).  No [health] or
   [stats] here — their replies embed wall-clock uptime, which would
   break bit-identical comparison.  Malformed entries are all
   non-silent so the served-query count per run is deterministic. *)
let parallel_mix =
  lazy
    (let rng = Random.State.make [| 0xC0FFEE |] in
     let rv ?(lo = 2) () = lo + Random.State.int rng (nv - lo) in
     let malformed =
       [| "bogus"; "points-to"; "alias v1"; "points-to nosuchvar"; "leak h999999"; "count nope"; "refine" |]
     in
     let base =
       List.init 1000 (fun i ->
           let q =
             match (i + 1) mod 10 with
             | 0 | 1 | 2 -> Printf.sprintf "points-to v%d" (rv ())
             | 3 | 4 -> Printf.sprintf "alias v%d v%d" (rv ()) (rv ())
             | 5 ->
               let v = rv () in
               Printf.sprintf "leak h%d" (List.nth heaps_of.(v) (Random.State.int rng (List.length heaps_of.(v))))
             | 6 -> "count vP"
             | 7 | 8 -> malformed.(Random.State.int rng (Array.length malformed))
             | _ -> "help"
           in
           (q, false))
     in
     let kills =
       List.concat (List.init kill_pairs (fun _ -> [ ("alias v0 v1", true); ("points-to v7", false) ]))
     in
     let trips =
       List.concat (List.init firewall_pairs (fun _ -> [ ("modref v1", false); ("points-to v3", false) ]))
     in
     (base, base @ kills @ trips))

(* One client: a fresh overlay, the whole sequence, raw result tuples out.
   No Alcotest inside (this runs inside spawned domains). *)
let run_mix srv stats queries =
  let ov = Serve.overlay srv in
  List.map
    (fun (line, tight_q) ->
      let s = Serve.serve_line ~limits:(if tight_q then tight else roomy) ~stats srv ov line in
      (s.Serve.outcome.Serve.ok, s.Serve.outcome.Serve.command, s.Serve.outcome.Serve.lines, s.Serve.close))
    queries

(* Check one (query, result) pair against the tuple oracle. *)
let oracle_check (line, tight_q) (ok_, cmd, lines, close_) =
  let var_ord v = int_of_string (String.sub v 1 (String.length v - 1)) in
  if tight_q then begin
    Alcotest.(check string) ("budget kill: " ^ line) "budget" cmd;
    Alcotest.(check bool) "budget kill is an error" false ok_;
    Alcotest.(check bool) "budget kill keeps the connection" false close_
  end
  else
    match String.split_on_char ' ' line with
    | [ "modref"; "v1" ] ->
      Alcotest.(check string) ("firewall: " ^ line) "internal" cmd;
      Alcotest.(check bool) "firewall closes the connection" true close_
    | [ "points-to"; v ] when ok_ ->
      Alcotest.(check (list string)) ("answer: " ^ line)
        (sorted (heap_names heaps_of.(var_ord v)))
        (sorted lines)
    | [ "alias"; v1; v2 ] when ok_ ->
      let shared = List.filter (fun h -> List.mem h heaps_of.(var_ord v2)) heaps_of.(var_ord v1) in
      (match lines with
      | head :: rest ->
        Alcotest.(check string) ("verdict: " ^ line) (if shared = [] then "no" else "yes") head;
        Alcotest.(check (list string)) ("heaps: " ^ line) (sorted (heap_names shared)) (sorted rest)
      | [] -> Alcotest.failf "query %S: empty reply" line)
    | [ "leak"; h ] when ok_ ->
      let h = var_ord h in
      let vars = List.filter (fun v -> List.mem h heaps_of.(v)) (List.init nv Fun.id) in
      Alcotest.(check (list string)) ("answer: " ^ line)
        (sorted (List.map (Printf.sprintf "v%d") vars))
        (sorted lines)
    | [ "count"; "vP" ] ->
      Alcotest.(check (list string)) "count vP" [ Printf.sprintf "vP %d" (List.length tuples) ] lines
    | "points-to" :: _ | "alias" :: _ | "leak" :: _ ->
      (* Valid-shape query that failed: only the malformed pool may do
         that, and those carry out-of-domain names by construction. *)
      Alcotest.(check bool) ("expected failure is an error: " ^ line) false ok_
    | _ -> ()

let test_parallel_soak () =
  let st = Store.load ~dir:(Lazy.force store_dir) in
  let srv = Serve.make st in
  let _base, queries = Lazy.force parallel_mix in
  (* Single-threaded reference run, oracle-checked. *)
  let ref_stats = Serve.make_stats () in
  let reference = run_mix srv ref_stats queries in
  List.iter2 oracle_check queries reference;
  let per_run_queries = Atomic.get ref_stats.Serve.s_queries in
  Alcotest.(check bool) "reference run counts every query" true (per_run_queries >= List.length queries);
  Alcotest.(check int) "reference budget kills" kill_pairs (Atomic.get ref_stats.Serve.s_budget_kills);
  Alcotest.(check int) "reference firewall trips" firewall_pairs (Atomic.get ref_stats.Serve.s_firewall_trips);
  (* The concurrent run: n_clients domains, one shared stats. *)
  let fd0 = count_fds () in
  let stats = Serve.make_stats () in
  let domains =
    List.init n_clients (fun _ -> Stdlib.Domain.spawn (fun () -> run_mix srv stats queries))
  in
  let transcripts = List.map Stdlib.Domain.join domains in
  (match (fd0, count_fds ()) with
  | Some before, Some after -> Alcotest.(check int) "fd count stable across parallel soak" before after
  | _ -> ());
  List.iteri
    (fun i transcript ->
      Alcotest.(check bool)
        (Printf.sprintf "client %d transcript bit-identical to single-threaded run" i)
        true (transcript = reference))
    transcripts;
  (* Stats are exactly consistent: every counter is the single-run
     value times the number of clients, with no lost updates. *)
  Alcotest.(check int) "parallel queries counted" (n_clients * per_run_queries) (Atomic.get stats.Serve.s_queries);
  Alcotest.(check int) "parallel ok + err = queries" (Atomic.get stats.Serve.s_queries)
    (Atomic.get stats.Serve.s_ok + Atomic.get stats.Serve.s_err);
  Alcotest.(check int) "parallel budget kills" (n_clients * kill_pairs) (Atomic.get stats.Serve.s_budget_kills);
  Alcotest.(check int) "parallel firewall trips" (n_clients * firewall_pairs)
    (Atomic.get stats.Serve.s_firewall_trips);
  let latency_total =
    Hashtbl.fold (fun _ (l : Serve.latency) acc -> acc + l.Serve.l_count) stats.Serve.s_latency 0
  in
  Alcotest.(check int) "parallel latency rows cover every query" (Atomic.get stats.Serve.s_queries) latency_total

(* The daemon-shaped path: a Serve.Pool with 4 worker domains takes
   the same 1k valid/malformed mix from 8 concurrent client threads.
   Which worker (hence which overlay, with which history) answers a given
   query is scheduling-dependent, so budget-kill tails are excluded;
   every remaining answer is history-independent and must equal the
   reference, and nothing may be dropped.  After [shutdown], further
   requests bounce with [err shutdown]. *)
let test_pool () =
  let st = Store.load ~dir:(Lazy.force store_dir) in
  let srv = Serve.make st in
  let base, _queries = Lazy.force parallel_mix in
  let ref_stats = Serve.make_stats () in
  let reference = run_mix srv ref_stats base in
  let stats = Serve.make_stats () in
  let pool = Serve.Pool.create ~limits:roomy ~stats ~workers:4 (Serve.Source.create srv) in
  let client () =
    List.map
      (fun (line, _) ->
        let s = Serve.Pool.run pool line in
        (s.Serve.outcome.Serve.ok, s.Serve.outcome.Serve.command, s.Serve.outcome.Serve.lines, s.Serve.close))
      base
  in
  let results = Array.make n_clients [] in
  let clients = List.init n_clients (fun i -> Thread.create (fun () -> results.(i) <- client ()) ()) in
  List.iter Thread.join clients;
  let transcripts = Array.to_list results in
  List.iteri
    (fun i transcript ->
      Alcotest.(check int) (Printf.sprintf "pool client %d: nothing dropped" i) (List.length base)
        (List.length transcript);
      Alcotest.(check bool) (Printf.sprintf "pool client %d answers match reference" i) true
        (transcript = reference))
    transcripts;
  Alcotest.(check int) "pool queries counted"
    (n_clients * Atomic.get ref_stats.Serve.s_queries)
    (Atomic.get stats.Serve.s_queries);
  Serve.Pool.shutdown pool;
  let s = Serve.Pool.run pool "points-to v3" in
  Alcotest.(check string) "post-shutdown requests bounce" "shutdown" s.Serve.outcome.Serve.command;
  Alcotest.(check bool) "post-shutdown bounce closes" true s.Serve.close

(* --- Protocol fuzz --------------------------------------------------
   1k+ seeded hostile lines — binary garbage, control characters,
   oversized payloads, token floods, almost-valid prefixes — first
   straight into [serve_line], then through the [Pta.Router] relay
   over a real unix socket.  Invariants: no exception ever escapes,
   every non-blank input yields a structured reply ([err ...] for the
   garbage), the descriptor count is flat, and the stats counters add
   up. *)

(* A tiny dedicated store: fuzz replies must stay small so the run is
   fast, and the soak store's 60k-row fan-outs would swamp it. *)
let fuzz_store_dir =
  lazy
    (let dir = tmp_dir "serve-fuzz" in
     let sp = Space.create () in
     let vdom = Domain.make ~name:"V" ~size:8 ~element_names:(Array.init 8 (Printf.sprintf "v%d")) () in
     let hdom = Domain.make ~name:"H" ~size:64 ~element_names:(Array.init 64 (Printf.sprintf "h%d")) () in
     let vb = Space.alloc sp vdom and hb = Space.alloc sp hdom in
     let vp =
       Relation.of_tuples sp ~name:"vP"
         [ { Relation.attr_name = "variable"; block = vb }; { Relation.attr_name = "heap"; block = hb } ]
         (List.init 8 (fun v -> [| v; v * 3 mod 64 |]))
     in
     Store.save ~dir ~key:"fuzz-key" ~config:[] ~space:sp ~relations:[ vp ];
     dir)

let fuzz_lines ?(strip_newlines = false) n =
  let rng = Random.State.make [| 0xF0225; n |] in
  let rand_bytes len =
    String.init len (fun _ ->
        let c = Char.chr (Random.State.int rng 256) in
        if strip_newlines && (c = '\n' || c = '\r') then 'x' else c)
  in
  let words = [| "points-to"; "alias"; "leak"; "count"; "modref"; "relations"; "help"; "vuln"; "refine" |] in
  List.init n (fun i ->
      match i mod 8 with
      | 0 -> rand_bytes (Random.State.int rng 200)
      | 1 -> String.make (4096 + Random.State.int rng 100_000) 'a'
      | 2 -> words.(Random.State.int rng (Array.length words)) ^ " " ^ rand_bytes (1 + Random.State.int rng 40)
      | 3 -> String.concat " " (List.init (1 + Random.State.int rng 500) (fun _ -> "v0"))
      | 4 -> Printf.sprintf "points-to v%d extra junk \x01\x02\x7f" (Random.State.int rng 16)
      | 5 -> "\t \x00ok points-to 3 12us"
      | 6 -> "err " ^ rand_bytes (Random.State.int rng 60)
      | _ ->
        String.init (Random.State.int rng 30) (fun _ ->
            let c = Char.chr (1 + Random.State.int rng 31) in
            if strip_newlines && (c = '\n' || c = '\r') then 'x' else c))

let test_serve_line_fuzz () =
  let st = Store.load ~dir:(Lazy.force fuzz_store_dir) in
  let srv = Serve.make st in
  let stats = Serve.make_stats () in
  let ov = Serve.overlay srv in
  let fd0 = count_fds () in
  let lines = fuzz_lines 1200 in
  let served = ref 0 in
  List.iter
    (fun line ->
      match Serve.serve_line ~limits:roomy ~stats srv ov line with
      | s ->
        let o = s.Serve.outcome in
        if not (o.Serve.command = "" && o.Serve.lines = []) then begin
          incr served;
          (* Framing invariant: an error reply is exactly one message
             line; a success reply's row count matches its body. *)
          if o.Serve.ok then Alcotest.(check int) "ok rows = body lines" (List.length o.Serve.lines) o.Serve.count
          else Alcotest.(check bool) ("error reply has a message: " ^ String.escaped line) true (o.Serve.lines <> [])
        end
      | exception e -> Alcotest.failf "serve_line raised on %S: %s" line (Printexc.to_string e))
    lines;
  Alcotest.(check bool) "fuzz actually served replies" true (!served >= 1000);
  Alcotest.(check int) "queries counted" !served (Atomic.get stats.Serve.s_queries);
  Alcotest.(check int) "ok + err = queries" (Atomic.get stats.Serve.s_queries)
    (Atomic.get stats.Serve.s_ok + Atomic.get stats.Serve.s_err);
  match (fd0, count_fds ()) with
  | Some before, Some after -> Alcotest.(check int) "fd count stable" before after
  | _ -> ()

(* In-process backend daemon speaking the wire protocol over a unix
   socket, exactly as the ptacli serve driver frames it; the router
   relays fuzz through it.  [open_conns] counts the accepted
   connections it has not closed yet. *)
let start_fuzz_backend ~sock =
  let open_conns = Atomic.make 0 in
  let st = Store.load ~dir:(Lazy.force fuzz_store_dir) in
  let srv = Serve.make st in
  let stats = Serve.make_stats () in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX sock);
  Unix.listen fd 8;
  let stop = ref false in
  let thread =
    Thread.create
      (fun () ->
        while not !stop do
          match Unix.select [ fd ] [] [] 0.1 with
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
          | [], _, _ -> ()
          | _ -> (
            match Unix.accept fd with
            | exception Unix.Unix_error _ -> ()
            | cfd, _ ->
              Atomic.incr open_conns;
              let ic = Unix.in_channel_of_descr cfd and oc = Unix.out_channel_of_descr cfd in
              let ov = Serve.overlay srv in
              (try
                 let continue = ref true in
                 while !continue do
                   let line = input_line ic in
                   if String.trim line = "quit" then continue := false
                   else begin
                     let s = Serve.serve_line ~limits:roomy ~stats srv ov line in
                     let o = s.Serve.outcome in
                     if not (o.Serve.command = "" && o.Serve.lines = []) then begin
                       Printf.fprintf oc "%s %s %d %.0fus\n"
                         (if o.Serve.ok then "ok" else "err")
                         o.Serve.command o.Serve.count s.Serve.latency_us;
                       List.iter (fun l -> output_string oc (l ^ "\n")) o.Serve.lines
                     end;
                     flush oc;
                     if s.Serve.close then continue := false
                   end
                 done
               with End_of_file | Sys_error _ -> ());
              (try Unix.close cfd with Unix.Unix_error _ -> ());
              Atomic.decr open_conns)
        done;
        try Unix.close fd with Unix.Unix_error _ -> ())
      ()
  in
  (thread, stop, open_conns)

(* The backend closes a connection only once it reads the client's
   EOF, so right after a client closes, the backend's descriptor may
   still be open.  Wait (bounded) until it has closed them all. *)
let await_backend_idle open_conns =
  let deadline = Unix.gettimeofday () +. 5.0 in
  while Atomic.get open_conns > 0 && Unix.gettimeofday () < deadline do
    Thread.delay 0.005
  done

let test_router_relay_fuzz () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let sock = Filename.concat (Filename.get_temp_dir_name ()) (Printf.sprintf "fuzz-backend-%d.sock" (Unix.getpid ())) in
  (try Sys.remove sock with Sys_error _ -> ());
  let thread, stop, open_conns = start_fuzz_backend ~sock in
  (* Snappy retry policy: hostile lines that legitimately drop the
     backend connection ("quit", protocol desync) burn a full
     timeout+backoff ladder each; the defaults would stretch 1k lines
     into minutes. *)
  let policy =
    {
      Pta.Router.default_policy with
      Pta.Router.request_timeout_s = 5.0;
      backoff_base_s = 0.005;
      backoff_max_s = 0.05;
      breaker_cooldown_s = 0.05;
    }
  in
  let router = Pta.Router.create ~policy [ sock ] in
  let session = Pta.Router.session ~seed:1 in
  Fun.protect
    ~finally:(fun () ->
      (* Session first: dropping the sticky connection unblocks the
         backend thread's [input_line] so the join can't hang when an
         assertion fires mid-loop. *)
      Pta.Router.close_session session;
      stop := true;
      (try Thread.join thread with _ -> ());
      try Sys.remove sock with Sys_error _ -> ())
    (fun () ->
      Pta.Router.probe_all router;
      (* The probe's connection is closed on the router side; the
         backend may still hold its end. *)
      await_backend_idle open_conns;
      let fd0 = count_fds () in
      (* The wire protocol is line-framed, so a client can never hand
         the relay an embedded newline: strip them (a raw \n would
         legitimately desync any line protocol). *)
      let lines = fuzz_lines ~strip_newlines:true 1000 in
      let replies = ref 0 in
      List.iter
        (fun line ->
          match Pta.Router.handle router session line with
          | None -> () (* blank/comment: no reply owed *)
          | Some r ->
            incr replies;
            let h = r.Pta.Router.rp_header in
            let ok_hdr =
              (String.length h >= 3 && String.sub h 0 3 = "ok ")
              || (String.length h >= 4 && String.sub h 0 4 = "err ")
            in
            if not ok_hdr then
              Alcotest.failf "relay of %S produced unframed header %S" (String.escaped line)
                r.Pta.Router.rp_header
          | exception e -> Alcotest.failf "router raised on %S: %s" (String.escaped line) (Printexc.to_string e))
        lines;
      Alcotest.(check bool) "relay produced replies" true (!replies >= 800);
      (* Sane fleet afterwards: a valid query still answers through
         the relay. *)
      (match Pta.Router.handle router session "count vP" with
      | Some r ->
        Alcotest.(check bool) "post-fuzz count vP is ok" true
          (String.length r.Pta.Router.rp_header >= 3 && String.sub r.Pta.Router.rp_header 0 3 = "ok ");
        Alcotest.(check (list string)) "post-fuzz count vP body" [ "vP 8" ] r.Pta.Router.rp_body
      | None -> Alcotest.fail "post-fuzz count vP owed a reply");
      Pta.Router.close_session session;
      await_backend_idle open_conns;
      match (fd0, count_fds ()) with
      | Some before, Some after ->
        (* The sticky backend connection is closed at both ends; only
           pre-existing fds remain. *)
        Alcotest.(check int) "fd count stable" before after
      | _ -> ())

let () =
  Alcotest.run "serve"
    [
      ("soak", [ Alcotest.test_case "1k mixed queries: correct, isolated, fd-stable" `Quick test_soak ]);
      ( "fuzz",
        [
          Alcotest.test_case "1.2k hostile lines straight into serve_line" `Quick test_serve_line_fuzz;
          Alcotest.test_case "1k hostile lines through the route relay" `Quick test_router_relay_fuzz;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "8 domains, bit-identical transcripts, exact stats" `Quick test_parallel_soak;
          Alcotest.test_case "worker pool: 8 clients x 4 domains, nothing dropped" `Quick test_pool;
        ] );
    ]
