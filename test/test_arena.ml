(* Randomized differential tests for the paged node arena: a capped
   manager (tiny pages, byte cap far below the working set, spilling
   cold pages to disk) must compute bit-for-bit the same relations as
   an uncapped, effectively-flat manager running the identical
   operation sequence.

   Both spaces are created with the same variable layout, so the
   canonical {!Bdd.serialize} dump — which is independent of handle
   numbering — doubles as the bit-identity fingerprint: equal dumps
   mean equal BDDs, whatever paging, eviction, and GC renumbering
   happened along the way.  The sequences interleave explicit GCs
   (compaction renumbers and level-clusters survivors) and are sized
   so the capped side provably pages: the suite asserts >= 100
   evictions actually occurred. *)

let seed = 0xa7e4a
let steps = 220
let gc_every = 16
let initial_tuples = 150
let dom_size = 256

(* Page/cap geometry: 16-slot pages (the clamp floor) of 512 data
   bytes each; an 8 KiB cap leaves ~13 unpinned resident pages, far
   below the thousands of nodes the sequence allocates. *)
let tiny_page_bits = 4
let tiny_cap = 8 * 1024

let dom = Domain.make ~name:"D" ~size:dom_size ()

type side = {
  sp : Space.t;
  man : Bdd.man;
  b : Space.block array;
  rels : Relation.t array;
}

let attrs side =
  [ { Relation.attr_name = "x"; block = side.b.(0) }; { attr_name = "y"; block = side.b.(1) } ]

let make_side ?page_bits ?mem_cap_bytes ?spill_path tuples =
  let sp = Space.create ~node_hint:64 ?page_bits ?mem_cap_bytes ?spill_path () in
  let b = Space.alloc_interleaved sp dom 3 in
  let side = { sp; man = Space.man sp; b; rels = [||] } in
  let make i =
    Relation.of_tuples sp ~name:(Printf.sprintf "r%d" i) (attrs side)
      (List.map Array.of_list tuples.(i))
  in
  { side with rels = Array.init 3 make }

let random_tuples rs k = List.init k (fun _ -> [ Random.State.int rs dom_size; Random.State.int rs dom_size ])

let sorted_tuples r = List.sort compare (List.map Array.to_list (Relation.tuples r))

(* The fingerprint: one shared-DAG canonical dump of all three roots. *)
let fingerprint side =
  Bdd.serialize side.man (Array.to_list (Array.map Relation.bdd side.rels))

let check_sides ctx a b =
  for k = 0 to 2 do
    Alcotest.(check (list (list int)))
      (Printf.sprintf "%s: rel %d tuples" ctx k)
      (sorted_tuples a.rels.(k)) (sorted_tuples b.rels.(k))
  done;
  Alcotest.(check string) (ctx ^ ": canonical dumps identical") (fingerprint a) (fingerprint b)

(* One random mutation, described as data so the identical step can be
   replayed against both sides. *)
type op =
  | Add of int * int list list
  | Union of int * int * int
  | Inter of int * int * int
  | Diff of int * int * int
  | SelectInto of int * string * int

let random_op rs =
  let r3 () = Random.State.int rs 3 in
  match Random.State.int rs 6 with
  | 0 -> Add (r3 (), random_tuples rs (1 + Random.State.int rs 5))
  | 1 -> Union (r3 (), r3 (), r3 ())
  | 2 -> Inter (r3 (), r3 (), r3 ())
  | 3 -> Diff (r3 (), r3 (), r3 ())
  | 4 -> SelectInto (r3 (), (if Random.State.bool rs then "x" else "y"), Random.State.int rs dom_size)
  | _ -> Add (r3 (), random_tuples rs (4 + Random.State.int rs 8))

let apply_op side = function
  | Add (k, tuples) -> List.iter (fun t -> Relation.add_tuple side.rels.(k) (Array.of_list t)) tuples
  | Union (k, i, j) ->
      Relation.set_bdd side.rels.(k)
        (Bdd.mk_or side.man (Relation.bdd side.rels.(i)) (Relation.bdd side.rels.(j)))
  | Inter (k, i, j) ->
      Relation.set_bdd side.rels.(k)
        (Bdd.mk_and side.man (Relation.bdd side.rels.(i)) (Relation.bdd side.rels.(j)))
  | Diff (k, i, j) ->
      Relation.set_bdd side.rels.(k)
        (Bdd.mk_diff side.man (Relation.bdd side.rels.(i)) (Relation.bdd side.rels.(j)))
  | SelectInto (k, a, v) ->
      let sel = Relation.select side.rels.(k) a v in
      Relation.set_bdd side.rels.(k) (Relation.bdd sel);
      Relation.dispose sel

let setup_pair rs ~spill_path =
  let tuples = Array.init 3 (fun _ -> random_tuples rs initial_tuples) in
  let flat = make_side tuples in
  let capped =
    make_side ~page_bits:tiny_page_bits ~mem_cap_bytes:tiny_cap ~spill_path tuples
  in
  (flat, capped)

let with_tmp_spill f =
  let path = Filename.temp_file "arena-test" ".spill" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

(* Growth + >= 3 GCs + heavy paging: the core differential run. *)
let test_differential_capped () =
  with_tmp_spill @@ fun spill_path ->
  let rs = Random.State.make [| seed |] in
  let flat, capped = setup_pair rs ~spill_path in
  check_sides "initial" flat capped;
  for n = 0 to steps - 1 do
    let op = random_op rs in
    apply_op flat op;
    apply_op capped op;
    if (n + 1) mod gc_every = 0 then begin
      Bdd.gc flat.man;
      Bdd.gc capped.man
    end;
    if (n + 1) mod 40 = 0 then check_sides (Printf.sprintf "step %d" n) flat capped
  done;
  check_sides "final" flat capped;
  Alcotest.(check bool) "at least 3 gcs" true (Bdd.gc_count capped.man >= 3);
  let st = Bdd.arena_stats capped.man in
  Alcotest.(check bool)
    (Printf.sprintf "capped side really paged (%d evictions)" st.Bdd.evictions)
    true
    (st.Bdd.evictions >= 100);
  Alcotest.(check bool) "spill file saw writes" true (st.Bdd.spill_writes > 0);
  Alcotest.(check bool) "spilled pages faulted back" true (st.Bdd.fault_ins > 0);
  (* The uncapped side must never have touched the pager. *)
  let fl = Bdd.arena_stats flat.man in
  Alcotest.(check int) "flat side: zero evictions" 0 fl.Bdd.evictions;
  Alcotest.(check int) "flat side: zero spill writes" 0 fl.Bdd.spill_writes

(* Freezing a paged space: the snapshot is fully resident and answers
   exactly like the live relations did. *)
let test_freeze_capped () =
  with_tmp_spill @@ fun spill_path ->
  let rs = Random.State.make [| seed + 1 |] in
  let flat, capped = setup_pair rs ~spill_path in
  for n = 0 to 99 do
    let op = random_op rs in
    apply_op flat op;
    apply_op capped op;
    if (n + 1) mod gc_every = 0 then Bdd.gc capped.man
  done;
  let live = Array.map sorted_tuples capped.rels in
  (* Space first, relations after: the freeze-time compaction
     renumbers, rewriting the registered roots in place. *)
  let fz = Bdd.freeze capped.man in
  let frels = Array.map Relation.freeze capped.rels in
  Alcotest.(check bool) "frozen snapshot has bytes" true (Bdd.frozen_bytes fz > 0);
  let ov = Bdd.overlay fz in
  Array.iteri
    (fun k fr ->
      let tuples = List.sort compare (List.map Array.to_list (Relation.frozen_tuples ov fr)) in
      Alcotest.(check (list (list int))) (Printf.sprintf "frozen rel %d" k) live.(k) tuples)
    frels;
  check_sides "live relations undisturbed by freeze" flat capped

(* A budget abort mid-way through a bulk load on a paging arena must
   leave the manager consistent; redoing the idempotent additions
   lands on exactly the flat side's result. *)
let test_budget_abort_resume () =
  with_tmp_spill @@ fun spill_path ->
  let rs = Random.State.make [| seed + 2 |] in
  let flat, capped = setup_pair rs ~spill_path in
  let tuples = random_tuples rs 2500 in
  let add_all side = List.iter (fun t -> Relation.add_tuple side.rels.(0) (Array.of_list t)) tuples in
  Bdd.set_budget capped.man
    (Some (Budget.make ~max_allocations:(Bdd.allocations capped.man + 1) ()));
  let aborted =
    match add_all capped with
    | () -> false
    | exception Bdd.Limit_exceeded (Budget.Allocations _) -> true
  in
  Alcotest.(check bool) "budget aborted the bulk load" true aborted;
  Bdd.gc capped.man;
  Bdd.set_budget capped.man None;
  add_all capped;
  add_all flat;
  check_sides "after abort and resume" flat capped

(* An injected crash on a spill write surfaces as the injector's
   exception with the pool unmutated: clearing the hook, the very same
   workload continues and still matches the flat side bit-for-bit. *)
let test_spill_fault_injection () =
  with_tmp_spill @@ fun spill_path ->
  let rs = Random.State.make [| seed + 3 |] in
  let flat, capped = setup_pair rs ~spill_path in
  let ops = List.init 120 (fun _ -> random_op rs) in
  List.iter (apply_op flat) ops;
  Faults.set_fs_hook
    (Some (fun label -> if label = "arena-spill-write" then raise (Faults.Crashed label)));
  let crashed = ref false in
  let rec run = function
    | [] -> ()
    | op :: rest -> (
        match apply_op capped op with
        | () -> run rest
        | exception Faults.Crashed _ ->
            crashed := true;
            Faults.set_fs_hook None;
            (* The failed eviction mutated nothing: retry the same op,
               then finish the sequence. *)
            run (op :: rest))
  in
  Fun.protect ~finally:(fun () -> Faults.set_fs_hook None) (fun () -> run ops);
  Alcotest.(check bool) "fault actually fired" true !crashed;
  check_sides "after injected spill fault" flat capped

(* A genuinely failing spill device (path into a missing directory) is
   a structured [Solver_error], not a crash or a corrupt arena. *)
let test_spill_io_error_is_structured () =
  let rs = Random.State.make [| seed + 4 |] in
  let tuples = Array.init 3 (fun _ -> random_tuples rs initial_tuples) in
  let outcome =
    match
      let broken =
        make_side ~page_bits:tiny_page_bits ~mem_cap_bytes:tiny_cap
          ~spill_path:"/nonexistent-arena-dir/arena.spill" tuples
      in
      List.iter
        (fun t -> Relation.add_tuple broken.rels.(0) (Array.of_list t))
        (random_tuples rs 4000)
    with
    | () -> "completed without spilling"
    | exception Solver_error.Error (Solver_error.Internal msg) ->
        if String.length msg >= 6 && String.sub msg 0 6 = "arena:" then "structured arena error"
        else "internal error without arena context: " ^ msg
  in
  Alcotest.(check string) "spill IO failure outcome" "structured arena error" outcome

let count_fds () =
  if Sys.file_exists "/proc/self/fd" then Array.length (Sys.readdir "/proc/self/fd") else -1

(* A disk-full (or EIO) hit mid-spill must abort as a *structured*
   [Solver_error.Internal] — not a raw [Unix_error] — with the page
   pool unmutated, the spill fd closed and the scratch file released
   (holding disk exactly when the disk ran out would be perverse).
   The recovery path is the driver's: dispose and re-run the same
   workload on a fresh manager, which lands bit-identical to the
   never-faulted flat side. *)
let test_enospc_mid_spill () =
  with_tmp_spill @@ fun spill_path ->
  let rs = Random.State.make [| seed + 5 |] in
  (* Baseline before any capped arena exists: after the abort closes
     the scratch fd, the process must be back to exactly this. *)
  let fds_before = count_fds () in
  let tuples = Array.init 3 (fun _ -> random_tuples rs initial_tuples) in
  let flat = make_side tuples in
  let ops = List.init 120 (fun _ -> random_op rs) in
  List.iter (apply_op flat) ops;
  Faults.set_fs_hook
    (Some
       (fun label ->
         if label = "arena-spill-write" then raise (Unix.Unix_error (Unix.ENOSPC, "write", spill_path))));
  let outcome =
    Fun.protect
      ~finally:(fun () -> Faults.set_fs_hook None)
      (fun () ->
        match
          let capped = make_side ~page_bits:tiny_page_bits ~mem_cap_bytes:tiny_cap ~spill_path tuples in
          List.iter (apply_op capped) ops
        with
        | () -> "completed without spilling"
        | exception Solver_error.Error (Solver_error.Internal msg) ->
            if String.length msg >= 6 && String.sub msg 0 6 = "arena:" then "structured arena error"
            else "internal error without arena context: " ^ msg
        | exception Unix.Unix_error (e, _, _) -> "raw Unix_error escaped: " ^ Unix.error_message e)
  in
  Alcotest.(check string) "ENOSPC outcome" "structured arena error" outcome;
  (* The failing write closed the scratch fd and removed the file:
     descriptor count is back to the pre-arena baseline. *)
  Alcotest.(check int) "spill fd closed on abort" fds_before (count_fds ());
  Alcotest.(check bool) "scratch file released" false (Sys.file_exists spill_path);
  (* Retry on a fresh manager (fault cleared): bit-identical result. *)
  let retry = make_side ~page_bits:tiny_page_bits ~mem_cap_bytes:tiny_cap ~spill_path tuples in
  List.iter (apply_op retry) ops;
  check_sides "after ENOSPC abort, fresh-manager retry" flat retry

(* Orphan spill scratch files (a SIGKILLed capped process leaves one
   behind) are swept at the next arena startup in the same directory —
   but only when the creator pid is provably dead *and* the file is
   old enough; live-process and fresh files are never touched. *)
let test_sweep_stale_spills () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) (Printf.sprintf "sweep-test-%d" (Unix.getpid ())) in
  ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir)));
  Unix.mkdir dir 0o755;
  (* A provably dead pid: fork a child that exits immediately and reap
     it.  (Reuse before the test ends is astronomically unlikely.) *)
  let dead_pid =
    match Unix.fork () with
    | 0 -> Stdlib.exit 0
    | pid ->
        ignore (Unix.waitpid [] pid);
        pid
  in
  let touch ?(age = 0.0) name =
    let path = Filename.concat dir name in
    let oc = open_out path in
    output_string oc "junk";
    close_out oc;
    if age > 0.0 then begin
      let t = Unix.gettimeofday () -. age in
      Unix.utimes path t t
    end;
    path
  in
  let dead_old = touch ~age:3600.0 (Printf.sprintf "arena.%d.spill" dead_pid) in
  let dead_old2 = touch ~age:3600.0 (Printf.sprintf "whalelam-arena.%d.abc123.spill" dead_pid) in
  let dead_fresh = touch (Printf.sprintf "whalelam-arena.%d.fresh1.spill" dead_pid) in
  (* same name family, but fresh: age guard must protect it *)
  let live = touch ~age:3600.0 (Printf.sprintf "arena.%d.spill" (Unix.getpid ())) in
  let other = touch ~age:3600.0 "not-an-arena-file.spill" in
  let removed = Bdd.sweep_stale_spills ~dir () in
  Alcotest.(check int) "swept exactly the dead+old scratch files" 2 removed;
  Alcotest.(check bool) "dead old arena.* gone" false (Sys.file_exists dead_old);
  Alcotest.(check bool) "dead old whalelam-arena.* gone" false (Sys.file_exists dead_old2);
  Alcotest.(check bool) "fresh file survives (age guard)" true (Sys.file_exists dead_fresh);
  Alcotest.(check bool) "live-pid file survives" true (Sys.file_exists live);
  Alcotest.(check bool) "unrelated file survives" true (Sys.file_exists other);
  (* max_age_s:0 drops the age guard: the fresh dead-pid file goes too. *)
  Alcotest.(check int) "age 0 sweeps the fresh dead-pid file" 1 (Bdd.sweep_stale_spills ~max_age_s:0.0 ~dir ());
  Alcotest.(check bool) "fresh dead-pid file gone at age 0" false (Sys.file_exists dead_fresh);
  ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir)))

let () =
  Alcotest.run "arena"
    [
      ( "differential",
        [
          Alcotest.test_case "capped vs flat, growth + 3 GCs + >=100 evictions" `Quick
            test_differential_capped;
        ] );
      ("freeze", [ Alcotest.test_case "freeze a paged space" `Quick test_freeze_capped ]);
      ( "budget",
        [ Alcotest.test_case "abort and resume under a cap" `Quick test_budget_abort_resume ] );
      ( "faults",
        [
          Alcotest.test_case "injected spill crash leaves arena usable" `Quick
            test_spill_fault_injection;
          Alcotest.test_case "spill IO error is a structured solver error" `Quick
            test_spill_io_error_is_structured;
          Alcotest.test_case "ENOSPC mid-spill: structured abort, fd closed, retry identical" `Quick
            test_enospc_mid_spill;
        ] );
      ( "sweep",
        [ Alcotest.test_case "stale spill scratch files swept, guarded by pid and age" `Quick
            test_sweep_stale_spills ] );
    ]
