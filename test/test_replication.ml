(* Replicated serving tier soak: the snapshot-follower swap machinery
   in-process, then the real thing — two [ptacli serve --follow]
   daemons behind a [ptacli route] router taking continuous mixed load
   while a writer re-saves the store, followers are SIGKILLed and
   restarted mid-swap, and a crash-injected save tears the snapshot on
   disk.  Acceptance, per the replication design:

   - zero wrong answers: every data reply is checked against a
     versioned oracle (variable [v2] points to exactly [h(32+version)],
     so any answer identifies which snapshot served it);
   - zero client-visible dropped connections or [err unavailable];
   - >= 5 rolling swaps and >= 2 follower kill/restarts under >= 1k
     queries;
   - torn snapshots are rejected (old snapshot keeps serving) and the
     next clean save recovers;
   - the old frozen spaces really die: fd count flat and major-heap
     live words bounded across >= 20 in-process swaps;
   - a follower pointed at a broken store exits 1 without binding. *)

module Serve = Pta.Serve

let tmp_dir name =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) (Printf.sprintf "whalelam-%s-%d" name (Unix.getpid ())) in
  ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir)));
  dir

let count_fds () =
  if Sys.file_exists "/proc/self/fd" then Some (Array.length (Sys.readdir "/proc/self/fd")) else None

(* --- Versioned store ------------------------------------------------
   Tiny points-to store whose content encodes its own version: [v2]
   points to exactly [h(32+version)] and nothing else, every other
   variable to the constant pair [h(v), h(v+8)].  An optional bulk
   [filler] relation (fresh pseudo-random tuples per version) makes
   each frozen space big enough that a leaked one is visible in the
   major heap. *)

let nv = 8
let nh = 4096
let repl_key = "repl-0123456789abcdef" (* ptacli logs [String.sub key 0 12] *)

(* The versioned store's space: a V block (elements [v0]..) and an H
   block ([h0]..).  A [save_delta] over such a store needs exactly this
   layout; [v_prefix] renames V's elements, which makes the layer
   carry a replacement V map. *)
let version_space ?(v_prefix = "v") () =
  let sp = Space.create () in
  let vdom = Domain.make ~name:"V" ~size:nv ~element_names:(Array.init nv (Printf.sprintf "%s%d" v_prefix)) () in
  let hdom = Domain.make ~name:"H" ~size:nh ~element_names:(Array.init nh (Printf.sprintf "h%d")) () in
  let vb = Space.alloc sp vdom and hb = Space.alloc sp hdom in
  (sp, vb, hb)

let save_version ?(filler = 0) ~dir version =
  let sp, vb, hb = version_space () in
  let tuples =
    List.concat_map
      (fun v -> if v = 2 then [ [| 2; 32 + version |] ] else [ [| v; v |]; [| v; v + 8 |] ])
      (List.init nv Fun.id)
  in
  let vp =
    Relation.of_tuples sp ~name:"vP"
      [ { Relation.attr_name = "variable"; block = vb }; { Relation.attr_name = "heap"; block = hb } ]
      tuples
  in
  let relations =
    if filler = 0 then [ vp ]
    else begin
      let hb2 = Space.alloc sp hb.Space.dom in
      let rng = Random.State.make [| 0xF111; version |] in
      let bulk =
        Relation.of_tuples sp ~name:"filler"
          [ { Relation.attr_name = "a"; block = hb }; { Relation.attr_name = "b"; block = hb2 } ]
          (List.init filler (fun _ -> [| Random.State.int rng nh; Random.State.int rng nh |]))
      in
      [ vp; bulk ]
    end
  in
  Store.save ~dir ~key:repl_key ~config:[] ~space:sp ~relations

let v2_answer version = [ Printf.sprintf "h%d" (32 + version) ]
let sorted = List.sort compare

(* --- In-process rolling swaps --------------------------------------
   Source + Pool + Follow wired exactly as the [ptacli serve --follow]
   driver wires them, churned through 24 snapshot swaps.  Checks the
   swap protocol (answers flip atomically, identity tracks the disk),
   the rejection path (a corrupted manifest leaves the old snapshot
   serving, reported once per broken disk state), and reclamation (fd
   count flat, live words bounded — the 23 dead frozen spaces, each
   carrying a ~10k-tuple filler relation, must actually be GC'd). *)

let test_inprocess_swaps () =
  let dir = tmp_dir "repl-inproc" in
  let filler = 10_000 in
  save_version ~filler ~dir 1;
  let source = Serve.Source.create (Serve.make (Store.load ~dir)) in
  let stats = Serve.make_stats () in
  let pool = Serve.Pool.create ~stats ~workers:2 source in
  let follow = Serve.Follow.make ~dir source in
  let ask line =
    let s = Serve.Pool.run pool line in
    if not s.Serve.outcome.Serve.ok then
      Alcotest.failf "query %S failed: %s" line (String.concat " | " s.Serve.outcome.Serve.lines);
    sorted s.Serve.outcome.Serve.lines
  in
  Alcotest.(check (list string)) "initial v2" (v2_answer 1) (ask "points-to v2");
  let fd0 = count_fds () in
  let live_words () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let baseline = ref 0 in
  let last_swaps = 25 in
  for v = 2 to last_swaps do
    save_version ~filler ~dir v;
    (match Serve.Follow.poll follow with
    | Serve.Follow.Swapped { snapshot; key; _ } ->
      Alcotest.(check string) "swap key" repl_key key;
      Alcotest.(check int) "swap snapshot" v snapshot
    | Serve.Follow.Unchanged -> Alcotest.failf "swap %d: poll saw no change" v
    | Serve.Follow.Rejected { reason } -> Alcotest.failf "swap %d rejected: %s" v reason);
    Serve.Pool.poke pool;
    (* The very next pooled request must already see the new snapshot:
       workers refresh before serving, never mid-request. *)
    Alcotest.(check (list string)) (Printf.sprintf "v2 after swap %d" v) (v2_answer v) (ask "points-to v2");
    Alcotest.(check (list string)) (Printf.sprintf "v0 after swap %d" v) [ "h0"; "h8" ] (ask "points-to v0");
    Alcotest.(check (pair string int)) "served ident" (repl_key, v) (Serve.Follow.served_ident follow);
    if v = 6 then baseline := live_words ()
  done;
  (* Reclamation: 19 further swaps past the baseline may not have
     accumulated dead frozen spaces (each filler space alone is >> the
     slack if retained). *)
  let final = live_words () in
  if final > !baseline + 300_000 then
    Alcotest.failf "frozen spaces leak across swaps: %d live words after swap 6, %d after swap %d" !baseline final
      last_swaps;
  (match (fd0, count_fds ()) with
  | Some a, Some b -> Alcotest.(check int) "fd count flat across swaps" a b
  | _ -> ());
  (* Rejection: a manifest claiming a new identity but failing its
     self-checksum must be refused, old snapshot still serving; the
     same broken disk state is reported only once (stat dedup). *)
  let mpath = Store.manifest_path dir in
  let pristine = In_channel.with_open_bin mpath In_channel.input_all in
  let broken =
    String.split_on_char '\n' pristine
    |> List.map (fun l -> if l = Printf.sprintf "snapshot %d" last_swaps then "snapshot 9999" else l)
    |> String.concat "\n"
  in
  Out_channel.with_open_bin mpath (fun oc -> Out_channel.output_string oc broken);
  (match Serve.Follow.poll follow with
  | Serve.Follow.Rejected _ -> ()
  | _ -> Alcotest.fail "corrupt manifest was not rejected");
  Alcotest.(check (list string)) "old snapshot serves after rejection" (v2_answer last_swaps) (ask "points-to v2");
  (match Serve.Follow.poll follow with
  | Serve.Follow.Unchanged -> ()
  | Serve.Follow.Swapped _ -> Alcotest.fail "swapped onto a corrupt manifest"
  | Serve.Follow.Rejected { reason } -> Alcotest.failf "rejection not deduped: %s" reason);
  (* Restoring the pristine manifest is not a new snapshot (same
     identity as served)… *)
  Out_channel.with_open_bin mpath (fun oc -> Out_channel.output_string oc pristine);
  (match Serve.Follow.poll follow with
  | Serve.Follow.Unchanged -> ()
  | _ -> Alcotest.fail "restored manifest should read as unchanged");
  (* …and a clean save right after recovers the swap pipeline. *)
  save_version ~filler ~dir (last_swaps + 1);
  (match Serve.Follow.poll follow with
  | Serve.Follow.Swapped { snapshot; _ } -> Alcotest.(check int) "recovery snapshot" (last_swaps + 1) snapshot
  | _ -> Alcotest.fail "clean save after rejection did not swap");
  Serve.Pool.poke pool;
  Alcotest.(check (list string)) "v2 after recovery" (v2_answer (last_swaps + 1)) (ask "points-to v2");
  Serve.Pool.shutdown pool

(* --- Corrupt data under a committed manifest -------------------------
   A save whose manifest commits but one of whose data files fails its
   CRC is rejected by the follower's load: the base dump of a full
   save, a layer's dump, and a base map that a later layer superseded
   (no name is read from it, but the chain still checksums it).  Each
   broken state is reported once, and the old snapshot keeps
   answering. *)

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_reject_corrupt_data () =
  let dir = tmp_dir "repl-crc" in
  save_version ~dir 1;
  let source = Serve.Source.create (Serve.make (Store.load ~dir)) in
  let pool = Serve.Pool.create ~stats:(Serve.make_stats ()) ~workers:1 source in
  let follow = Serve.Follow.make ~dir source in
  let v2 () =
    Serve.Pool.poke pool;
    sorted (Serve.Pool.run pool "points-to v2").Serve.outcome.Serve.lines
  in
  (* A layer over the current tip that adds [v2 -> h(32+version)]. *)
  let save_layer ?v_prefix version =
    let sp, vb, hb = version_space ?v_prefix () in
    let vp tuples =
      Relation.bdd
        (Relation.of_tuples sp ~name:"d"
           [ { Relation.attr_name = "variable"; block = vb }; { Relation.attr_name = "heap"; block = hb } ]
           tuples)
    in
    ignore
      (Store.save_delta ~dir ~key:repl_key ~config:[] ~space:sp ~deltas:[ ("vP", vp [ [| 2; 32 + version |] ], vp []) ])
  in
  let rejected_once ~file ~serving =
    Faults.corrupt_file (Filename.concat (Filename.concat dir "store") file) ~at:5 "XYZ";
    (match Serve.Follow.poll follow with
    | Serve.Follow.Rejected { reason } ->
      Alcotest.(check bool) (file ^ ": the load names the file: " ^ reason) true (contains reason ("store/" ^ file))
    | Serve.Follow.Swapped _ -> Alcotest.failf "%s: swapped onto a corrupt save" file
    | Serve.Follow.Unchanged -> Alcotest.failf "%s: the committed save went unnoticed" file);
    (match Serve.Follow.poll follow with
    | Serve.Follow.Unchanged -> ()
    | _ -> Alcotest.failf "%s: one broken state reported twice" file);
    Alcotest.(check (list string)) (file ^ ": old snapshot answers") (v2_answer serving) (v2 ())
  in
  let swapped version =
    match Serve.Follow.poll follow with
    | Serve.Follow.Swapped { snapshot; _ } -> Alcotest.(check int) "clean save swaps in" version snapshot
    | _ -> Alcotest.failf "clean save %d did not swap" version
  in
  save_version ~dir 2;
  rejected_once ~file:"relations.bdd" ~serving:1;
  save_version ~dir 3;
  swapped 3;
  save_layer 4;
  rejected_once ~file:"layer.1.bdd" ~serving:3;
  save_version ~dir 5;
  swapped 5;
  save_layer ~v_prefix:"w" 6;
  Alcotest.(check bool) "the layer supersedes V.map" true
    (Sys.file_exists (Filename.concat (Filename.concat dir "store") "layer.1.V.map"));
  rejected_once ~file:"V.map" ~serving:5;
  Serve.Pool.shutdown pool

(* --- Process-level soak ---------------------------------------------
   Real binaries, real sockets, real kills. *)

let bin = "../bin/ptacli.exe"

let devnull = lazy (Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0)

let spawn args log =
  let logfd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let pid = Unix.create_process bin args (Lazy.force devnull) logfd logfd in
  Unix.close logfd;
  pid

let spawn_follower ~dir ~sock ~log =
  spawn
    [| bin; "serve"; "--store"; dir; "--socket"; sock; "--follow"; "--poll-interval"; "0.05"; "--workers"; "2" |]
    log

let wait_for_socket sock =
  let deadline = Unix.gettimeofday () +. 15.0 in
  let rec go () =
    let ready =
      Sys.file_exists sock
      &&
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          match Unix.connect fd (Unix.ADDR_UNIX sock) with
          | () -> true
          | exception Unix.Unix_error _ -> false)
    in
    if ready then ()
    else if Unix.gettimeofday () > deadline then Alcotest.failf "socket %s never came up" sock
    else begin
      Thread.delay 0.05;
      go ()
    end
  in
  go ()

(* Strictly framed client: header [ok|err <cmd> <rows> <latency>],
   then exactly [rows] body lines after [ok] and exactly one after
   [err].  Any framing violation or channel error is a client-visible
   drop — an immediate failure. *)
type client = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let connect sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

let disconnect c =
  (try
     output_string c.oc "quit\n";
     flush c.oc
   with Sys_error _ -> ());
  try Unix.close c.fd with Unix.Unix_error _ -> ()

let ask_framed c line =
  output_string c.oc (line ^ "\n");
  flush c.oc;
  let header = input_line c.ic in
  match String.split_on_char ' ' (String.trim header) with
  | status :: _cmd :: rows :: _ when status = "ok" || status = "err" ->
    let n =
      if status = "err" then 1
      else
        match int_of_string_opt rows with
        | Some n when n >= 0 -> n
        | _ -> failwith (Printf.sprintf "query %S: bad rows in header %S" line header)
    in
    let body = ref [] in
    for _ = 1 to n do
      body := input_line c.ic :: !body
    done;
    (status, List.rev !body)
  | _ -> failwith (Printf.sprintf "query %S: bad header %S" line header)

let test_process_soak () =
  let dir = tmp_dir "repl-soak" in
  let sockdir = tmp_dir "repl-socks" in
  ignore (Sys.command (Printf.sprintf "mkdir -p %s" (Filename.quote sockdir)));
  let s1 = Filename.concat sockdir "f1.sock"
  and s2 = Filename.concat sockdir "f2.sock"
  and rs = Filename.concat sockdir "router.sock" in
  let l1 = Filename.concat sockdir "f1.log"
  and l2 = Filename.concat sockdir "f2.log"
  and lr = Filename.concat sockdir "router.log" in
  save_version ~dir 1;
  let f1 = ref (spawn_follower ~dir ~sock:s1 ~log:l1) in
  let f2 = ref (spawn_follower ~dir ~sock:s2 ~log:l2) in
  wait_for_socket s1;
  wait_for_socket s2;
  let router =
    spawn
      [|
        bin; "route"; "--socket"; rs; "--backend"; s1; "--backend"; s2; "--probe-interval"; "0.2"; "--retries"; "4";
        "--request-timeout"; "10"; "--max-clients"; "32";
      |]
      lr
  in
  wait_for_socket rs;
  (* Shared soak state: the writer publishes the newest version before
     saving it, so every client-side check is against versions 1..maxv
     — any other answer is a wrong answer from nowhere. *)
  let maxv = Atomic.make 1 in
  let stop = Atomic.make false in
  let queries = Atomic.make 0 in
  let failure = Atomic.make None in
  let fail_once fmt =
    Printf.ksprintf
      (fun msg -> if Atomic.compare_and_set failure None (Some msg) then Atomic.set stop true)
      fmt
  in
  let client_loop tid () =
    match connect rs with
    | exception e -> fail_once "client %d could not connect: %s" tid (Printexc.to_string e)
    | c ->
      (try
         let i = ref 0 in
         while not (Atomic.get stop) do
           incr i;
           (match !i mod 8 with
           | 0 | 1 | 4 -> (
             let status, body = ask_framed c "points-to v2" in
             let hi = Atomic.get maxv in
             match (status, body) with
             | "ok", [ h ] ->
               let ok = List.exists (fun v -> v2_answer v = [ h ]) (List.init hi (fun i -> i + 1)) in
               if not ok then fail_once "client %d: v2 answered %S, valid versions 1..%d" tid h hi
             | _ -> fail_once "client %d: v2 reply %s/%d rows" tid status (List.length body))
           | 2 ->
             let status, body = ask_framed c "points-to v0" in
             if not (status = "ok" && sorted body = [ "h0"; "h8" ]) then
               fail_once "client %d: v0 answered %s %s" tid status (String.concat "," body)
           | 3 -> (
             let status, body = ask_framed c "alias v0 v0" in
             match (status, body) with
             | "ok", "yes" :: rest when sorted rest = [ "h0"; "h8" ] -> ()
             | _ -> fail_once "client %d: alias v0 v0 answered %s %s" tid status (String.concat "," body))
           | 5 ->
             let status, body = ask_framed c "count vP" in
             if not (status = "ok" && body = [ "vP 15" ]) then
               fail_once "client %d: count vP answered %s %s" tid status (String.concat "," body)
           | 6 ->
             (* Router-local commands, still strictly framed. *)
             let status, _ = ask_framed c (if !i mod 16 = 6 then "health" else "stats") in
             if status <> "ok" then fail_once "client %d: router %s not ok" tid status
           | _ ->
             let status, body = ask_framed c "points-to nosuchvar" in
             if not (status = "err" && List.length body = 1) then
               fail_once "client %d: semantic error misframed: %s/%d" tid status (List.length body));
           Atomic.incr queries
         done
       with e -> fail_once "client %d dropped: %s" tid (Printexc.to_string e));
      disconnect c
  in
  let clients = List.init 4 (fun tid -> Thread.create (client_loop tid) ()) in
  let reap pid = ignore (Unix.waitpid [] pid) in
  let kill_and_restart which pidref sock log =
    Unix.kill !pidref Sys.sigkill;
    reap !pidref;
    Thread.delay 0.2;
    (* SIGKILL leaves the socket file behind: the restart exercises
       stale-socket reclamation. *)
    pidref := spawn_follower ~dir ~sock ~log;
    wait_for_socket sock;
    ignore which
  in
  (* Writer + chaos: six rolling saves; follower 1 killed/restarted
     under version 3, follower 2 under version 5, and a crash-injected
     save tears the store on disk after version 4 (both followers must
     reject it and keep serving; the version-5 save recovers). *)
  for v = 2 to 7 do
    Atomic.set maxv v;
    save_version ~dir v;
    Thread.delay 0.4;
    match v with
    | 3 -> kill_and_restart "f1" f1 s1 l1
    | 4 ->
      (match Faults.crash_at_fs_op 10 (fun () -> save_version ~dir 31) with
      | Some label ->
        if not (String.length label >= 5 && String.sub label 0 5 = "write") then
          Alcotest.failf "torn save crashed at %S, expected a data write" label
      | None -> Alcotest.fail "torn-save crash point never fired");
      Alcotest.(check bool) "torn save leaves no committed store" true (Store.read_tip ~dir = None);
      (* Let both followers poll the debris and reject it while load
         continues. *)
      Thread.delay 0.4
    | 5 -> kill_and_restart "f2" f2 s2 l2
    | _ -> ()
  done;
  (* Keep the load running until the query floor is comfortably met. *)
  let deadline = Unix.gettimeofday () +. 30.0 in
  while Atomic.get queries < 1200 && Atomic.get failure = None && Unix.gettimeofday () < deadline do
    Thread.delay 0.05
  done;
  Atomic.set stop true;
  List.iter Thread.join clients;
  (match Atomic.get failure with
  | Some msg ->
    List.iter
      (fun log ->
        if Sys.file_exists log then
          Printf.printf "--- %s ---\n%s\n" log (In_channel.with_open_bin log In_channel.input_all))
      [ l1; l2; lr ];
    Alcotest.fail msg
  | None -> ());
  let total = Atomic.get queries in
  Printf.printf "process soak: %d queries, final version 7\n%!" total;
  Alcotest.(check bool) "soak floor: >= 1200 queries" true (total >= 1200);
  (* Convergence: both backends behind the router must reach version 7
     — eight consecutive round-robined answers pin both. *)
  let c = connect rs in
  let rec converge n tries =
    if n >= 8 then ()
    else if tries > 400 then Alcotest.fail "fleet never converged to version 7"
    else begin
      let status, body = ask_framed c "points-to v2" in
      if status = "ok" && body = v2_answer 7 then converge (n + 1) tries
      else begin
        Thread.delay 0.05;
        converge 0 (tries + 1)
      end
    end
  in
  converge 0 0;
  (* The router observed the chaos: sticky connections to a SIGKILLed
     backend fail mid-use, so at least one retry switched backends. *)
  let _, stats_body = ask_framed c "stats" in
  let counter name =
    List.fold_left
      (fun acc l ->
        match String.split_on_char ' ' l with
        | [ n; v ] when n = name -> ( match int_of_string_opt v with Some i -> i | None -> acc)
        | _ -> acc)
      (-1) stats_body
  in
  let failovers = counter "failovers" in
  Printf.printf "router: retries %d failovers %d unavailable %d\n%!" (counter "retries") failovers
    (counter "unavailable");
  Alcotest.(check bool) "router failed over at least once" true (failovers >= 1);
  Alcotest.(check int) "no err unavailable ever synthesized" 0 (counter "unavailable");
  disconnect c;
  (* Graceful teardown; then audit the follower logs for the swap and
     fault lines the soak must have produced. *)
  Unix.kill router Sys.sigterm;
  reap router;
  Unix.kill !f1 Sys.sigterm;
  Unix.kill !f2 Sys.sigterm;
  reap !f1;
  reap !f2;
  let log_count needle log =
    let text = In_channel.with_open_bin log In_channel.input_all in
    let n = String.length needle and len = String.length text in
    let count = ref 0 in
    for pos = 0 to len - n do
      if String.sub text pos n = needle then incr count
    done;
    !count
  in
  List.iter
    (fun log ->
      if log_count "serve: swap ok" log < 3 then Alcotest.failf "%s: fewer than 3 swaps logged" log;
      if log_count "serve: swap rejected" log < 1 then Alcotest.failf "%s: torn save never rejected" log)
    [ l1; l2 ];
  (* Both restarted followers reclaimed the stale socket their
     SIGKILLed predecessor left behind. *)
  List.iter
    (fun log ->
      if log_count "removing stale socket" log < 1 then Alcotest.failf "%s: stale socket was not reclaimed" log)
    [ l1; l2 ]

(* --- Fail-fast startup ----------------------------------------------
   A follower pointed at a missing/broken store must exit 1 with a
   structured error before binding: no socket file may exist for a
   router to trip over. *)

let test_initial_load_failure () =
  let dir = tmp_dir "repl-nostore" in
  let sockdir = tmp_dir "repl-nostore-socks" in
  ignore (Sys.command (Printf.sprintf "mkdir -p %s %s" (Filename.quote dir) (Filename.quote sockdir)));
  let sock = Filename.concat sockdir "f.sock" in
  let log = Filename.concat sockdir "f.log" in
  let pid = spawn_follower ~dir ~sock ~log in
  (match Unix.waitpid [] pid with
  | _, Unix.WEXITED 1 -> ()
  | _, status ->
    let d = match status with
      | Unix.WEXITED n -> Printf.sprintf "exit %d" n
      | Unix.WSIGNALED n -> Printf.sprintf "signal %d" n
      | Unix.WSTOPPED n -> Printf.sprintf "stopped %d" n
    in
    Alcotest.failf "follower on a missing store: expected exit 1, got %s" d);
  Alcotest.(check bool) "no socket file left behind" false (Sys.file_exists sock)

(* --- Capacity: --max-clients backpressure ---------------------------
   With one connection slot taken, the next client of `serve` or
   `route` gets an explicit busy reply and a hang-up, and serve counts
   it in [stats]. *)

let wait_for_log log needle =
  let deadline = Unix.gettimeofday () +. 15.0 in
  let has () =
    Sys.file_exists log
    && List.exists (String.starts_with ~prefix:needle) (In_channel.with_open_bin log In_channel.input_lines)
  in
  while not (has ()) do
    if Unix.gettimeofday () > deadline then Alcotest.failf "%s never logged %S" log needle;
    Thread.delay 0.05
  done

(* Start [args] listening on [sock], hold its one slot with a served
   client, and check a second client is turned away with [busy_line].
   Returns the holding client and the daemon's pid. *)
let second_client_is_busy ~args ~sock ~log ~cmd ~busy_line =
  let pid = spawn args log in
  (* The banner is printed after [listen]; a probe connection would
     itself occupy the slot. *)
  wait_for_log log (cmd ^ ": listening on");
  let first = connect sock in
  let status, _ = ask_framed first "stats" in
  Alcotest.(check string) (cmd ^ ": the first client is served") "ok" status;
  let second = connect sock in
  let reply = In_channel.input_all second.ic in
  Unix.close second.fd;
  Alcotest.(check string) (cmd ^ ": the second client is busy") ("err busy 0 0us\n" ^ busy_line ^ "\n") reply;
  (first, pid)

let stop_daemon pid =
  Unix.kill pid Sys.sigterm;
  ignore (Unix.waitpid [] pid)

let test_serve_busy () =
  let dir = tmp_dir "repl-busy" in
  save_version ~dir 1;
  let sockdir = tmp_dir "repl-busy-socks" in
  ignore (Sys.command (Printf.sprintf "mkdir -p %s" (Filename.quote sockdir)));
  let sock = Filename.concat sockdir "s.sock" and log = Filename.concat sockdir "s.log" in
  let first, pid =
    second_client_is_busy ~sock ~log ~cmd:"serve"
      ~args:[| bin; "serve"; "--store"; dir; "--socket"; sock; "--max-clients"; "1" |]
      ~busy_line:"server at capacity (1 connections); retry later"
  in
  let _, body = ask_framed first "stats" in
  Alcotest.(check bool) "stats counts the busy reply" true (List.mem "rejected-busy 1" body);
  disconnect first;
  stop_daemon pid

let test_route_busy () =
  let sockdir = tmp_dir "repl-route-busy" in
  ignore (Sys.command (Printf.sprintf "mkdir -p %s" (Filename.quote sockdir)));
  let sock = Filename.concat sockdir "r.sock" and log = Filename.concat sockdir "r.log" in
  let first, pid =
    second_client_is_busy ~sock ~log ~cmd:"route"
      ~args:
        [| bin; "route"; "--socket"; sock; "--backend"; Filename.concat sockdir "none.sock"; "--max-clients"; "1" |]
      ~busy_line:"router at capacity (1 connections); retry later"
  in
  disconnect first;
  stop_daemon pid

let () =
  Alcotest.run "replication"
    [
      ( "swap",
        [
          Alcotest.test_case "in-process rolling swaps + rejection + reclamation" `Quick test_inprocess_swaps;
          Alcotest.test_case "a committed save with a corrupt data file is rejected" `Quick
            test_reject_corrupt_data;
        ] );
      ( "soak",
        [
          Alcotest.test_case "followers + router under kills and torn saves" `Quick test_process_soak;
          Alcotest.test_case "initial load failure exits 1 without binding" `Quick test_initial_load_failure;
        ] );
      ( "busy",
        [
          Alcotest.test_case "serve --max-clients 1 turns a second client away" `Quick test_serve_busy;
          Alcotest.test_case "route --max-clients 1 turns a second client away" `Quick test_route_busy;
        ] );
    ]
