(* End-to-end tests for the persistent relation store on the gantt
   benchmark: save a solved Algorithm 5 result, load it back into a
   fresh manager, and check

   - exactness: every loaded relation is BDD-semantically equal to the
     freshly solved one (same canonical dump bytes under the saved
     variable numbering, same node count, same cardinality);
   - serving: a warm batch of >= 100 mixed queries through
     [Pta.Serve.handle] answers identically to evaluation over the
     fresh result, with zero re-solves, at least 10x faster than the
     cold solve;
   - robustness: corrupt manifests and BDD dumps are rejected as
     [Bad_input], and an overwritten store never mixes old and new. *)

module Analyses = Pta.Analyses
module Queries = Pta.Queries
module Serve = Pta.Serve
module Engine = Datalog.Engine

let tmp_dir name =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) (Printf.sprintf "whalelam-%s-%d" name (Unix.getpid ())) in
  ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir)));
  dir

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* One shared gantt solve (with the refinement query, so the store can
   also answer [refine]) reused across tests; [solve_seconds] is the
   measured wall-clock of the whole cold pipeline. *)
let solved =
  lazy
    (let profile = Option.get (Synth.Profiles.find "gantt") in
     let program = Synth.Generator.generate (Synth.Profiles.params ~scale:0.04 profile) in
     let fg = Jir.Factgen.extract program in
     let (cs : Analyses.result), seconds =
       time (fun () ->
           let otf = Analyses.run_basic ~algo:Analyses.Algo3 fg in
           let ctx = Analyses.make_context fg ~ie:(Analyses.ie_tuples otf) in
           Analyses.run_cs fg ctx ~query:Queries.refinement_projected_cs)
     in
     (cs, seconds))

let saved_dir =
  lazy
    (let cs, _ = Lazy.force solved in
     let dir = tmp_dir "store-test" in
     let eng = cs.Analyses.engine in
     Store.save ~dir ~key:"test-key" ~config:[ ("algo", "algo5"); ("bench", "gantt") ]
       ~space:(Engine.space eng) ~relations:(Engine.exported_relations eng);
     dir)

(* The chain tip's key, as [query --store] compares it. *)
let tip_key dir = Option.map (fun (t : Store.tip) -> t.key) (Store.read_tip ~dir)

let test_manifest () =
  let dir = Lazy.force saved_dir in
  Alcotest.(check bool) "exists" true (Store.exists ~dir);
  Alcotest.(check bool) "read_tip" true
    (Store.read_tip ~dir = Some { Store.key = "test-key"; snapshot = 1; layers = 0; certified = false });
  Alcotest.(check bool) "no store elsewhere" false (Store.exists ~dir:(dir ^ "-nope"));
  Alcotest.(check bool) "no tip elsewhere" true (Store.read_tip ~dir:(dir ^ "-nope") = None);
  let st = Store.load ~dir in
  Alcotest.(check string) "key" "test-key" (Store.key st);
  Alcotest.(check int) "snapshot counter" 1 (Store.snapshot st);
  Alcotest.(check bool) "no mark, not certified" false (Store.certified st);
  Alcotest.(check (option string)) "config" (Some "gantt") (Store.config_value st "bench")

(* BDD-semantic equality across managers: re-dump each side under its
   own manager and compare bytes.  Both managers carry the same
   variable numbering (the store restores the saved blocks verbatim),
   and the dump of a reduced ordered BDD under a fixed numbering is
   canonical, so byte equality is semantic equality. *)
let test_round_trip_exact () =
  let cs, _ = Lazy.force solved in
  let eng = cs.Analyses.engine in
  let fresh_man = Space.man (Engine.space eng) in
  let st = Store.load ~dir:(Lazy.force saved_dir) in
  let loaded_man = Space.man (Store.space st) in
  let fresh = Engine.exported_relations eng in
  Alcotest.(check int) "same relation count" (List.length fresh) (List.length (Store.relations st));
  List.iter
    (fun fr ->
      let name = Relation.name fr in
      match Store.find st name with
      | None -> Alcotest.fail ("missing from store: " ^ name)
      | Some ld ->
        Alcotest.(check (float 0.0)) (name ^ ": cardinality") (Relation.count fr) (Relation.count ld);
        Alcotest.(check int) (name ^ ": node count")
          (Bdd.node_count fresh_man (Relation.bdd fr))
          (Bdd.node_count loaded_man (Relation.bdd ld));
        Alcotest.(check bool) (name ^ ": canonical dump bytes") true
          (Bdd.serialize fresh_man [ Relation.bdd fr ] = Bdd.serialize loaded_man [ Relation.bdd ld ]))
    fresh

(* >= 100 mixed queries served warm, answered identically to direct
   evaluation over the fresh result, and (load + whole batch) at least
   10x faster than the cold solve.  Serve never touches a Datalog
   engine, so zero re-solves holds by construction. *)
let test_warm_serve_batch () =
  let cs, cold_seconds = Lazy.force solved in
  let vpc = Analyses.relation cs "vPC" in
  let fresh_pt = Relation.project vpc [ "variable"; "heap" ] in
  let man = Space.man (Relation.space fresh_pt) and fpt = Relation.freeze fresh_pt in
  let hdom = (Relation.find_attr fresh_pt "heap").Relation.block.Space.dom in
  let vdom = (Relation.find_attr fresh_pt "variable").Relation.block.Space.dom in
  let nv = Domain.size vdom in
  let queries =
    List.concat
      [
        List.init 50 (fun i -> Printf.sprintf "points-to %d" (i * 17 mod nv));
        List.init 25 (fun i -> Printf.sprintf "alias %d %d" (i * 13 mod nv) ((i * 13 * 3) mod nv));
        List.init 23 (fun i -> Printf.sprintf "leak %d" (i * 5 mod Domain.size hdom));
        [ "refine"; "count vPC" ];
      ]
  in
  Alcotest.(check bool) "batch has >= 100 queries" true (List.length queries >= 100);
  let (srv, outcomes), warm_seconds =
    time (fun () ->
        let st = Store.load ~dir:(Lazy.force saved_dir) in
        let srv = Serve.make st in
        let ov = Serve.overlay srv in
        (srv, List.map (Serve.handle srv ov) queries))
  in
  ignore srv;
  List.iter (fun (o : Serve.outcome) -> Alcotest.(check bool) ("served ok: " ^ o.Serve.command) true o.Serve.ok) outcomes;
  (* Spot-check answers against direct evaluation over the fresh solve. *)
  List.iter2
    (fun q (o : Serve.outcome) ->
      match String.split_on_char ' ' q with
      | [ "points-to"; v ] ->
        let expect =
          List.map (Domain.element_name hdom) (Queries.points_to man fpt ~var:(int_of_string v))
        in
        Alcotest.(check (list string)) ("answer: " ^ q) expect o.Serve.lines
      | [ "alias"; v1; v2 ] ->
        let shared =
          Queries.alias_heaps man fpt ~v1:(int_of_string v1) ~v2:(int_of_string v2)
        in
        let expect = (if shared = [] then "no" else "yes") :: List.map (Domain.element_name hdom) shared in
        Alcotest.(check (list string)) ("answer: " ^ q) expect o.Serve.lines
      | _ -> ())
    queries outcomes;
  (* The refinement ratios must match the engine-side computation. *)
  let r = Analyses.refinement_ratios (Analyses.count cs) ~per_clone:false in
  let refine_outcome = List.nth outcomes 98 in
  Alcotest.(check string) "refine population"
    (Printf.sprintf "population %.0f" r.Analyses.population)
    (List.hd refine_outcome.Serve.lines);
  Printf.printf "cold solve %.2fs, warm load+%d-query batch %.3fs (%.0fx)\n%!" cold_seconds
    (List.length queries) warm_seconds
    (cold_seconds /. warm_seconds);
  Alcotest.(check bool) "warm batch at least 10x faster than cold solve" true
    (warm_seconds *. 10.0 <= cold_seconds);
  Relation.dispose fresh_pt

let expect_bad_input ctx f =
  match f () with
  | _ -> Alcotest.fail (ctx ^ ": expected Bad_input")
  | exception Solver_error.Error (Solver_error.Bad_input _) -> ()

(* Corruption: a store with a damaged manifest or BDD dump must fail
   loudly, and a manifest-less directory is simply "no store". *)
let test_corruption () =
  let src = Lazy.force saved_dir in
  let copy name =
    let dir = tmp_dir name in
    ignore (Sys.command (Printf.sprintf "cp -r %s %s" (Filename.quote src) (Filename.quote dir)));
    dir
  in
  (* Truncated manifest (missing end marker). *)
  let dir = copy "store-badmanifest" in
  let manifest = Filename.concat (Filename.concat dir "store") "manifest" in
  let ic = open_in manifest in
  let lines = In_channel.input_lines ic in
  close_in ic;
  let oc = open_out manifest in
  List.iteri (fun i l -> if i < List.length lines - 1 then output_string oc (l ^ "\n")) lines;
  close_out oc;
  expect_bad_input "truncated manifest" (fun () -> Store.load ~dir);
  (* Flipped byte in the middle of the BDD dump: the manifest CRC must
     reject it before the deserializer sees a single triple. *)
  let dir = copy "store-badbdd" in
  let bddfile = Filename.concat (Filename.concat dir "store") "relations.bdd" in
  let data = In_channel.with_open_bin bddfile In_channel.input_all in
  let b = Bytes.of_string data in
  let mid = String.length data / 2 in
  Bytes.set b mid (Char.chr (Char.code (Bytes.get b mid) lxor 0x5A));
  Out_channel.with_open_bin bddfile (fun oc -> Out_channel.output_bytes oc b);
  expect_bad_input "flipped BDD dump byte" (fun () -> Store.load ~dir);
  (* Missing manifest = no store at all. *)
  let dir = copy "store-nomanifest" in
  Sys.remove (Filename.concat (Filename.concat dir "store") "manifest");
  Alcotest.(check bool) "manifest-less store does not exist" false (Store.exists ~dir);
  Alcotest.(check (option string)) "manifest-less store has no key" None (tip_key dir);
  expect_bad_input "manifest-less load" (fun () -> Store.load ~dir)

(* Overwrite: saving different relations under a new key at the same
   dir fully replaces the old store. *)
let test_overwrite () =
  let dir = tmp_dir "store-overwrite" in
  let sp = Space.create () in
  let d = Domain.make ~name:"D" ~size:8 () in
  let b = Space.alloc sp d in
  let r1 = Relation.of_tuples sp ~name:"one" [ { Relation.attr_name = "x"; block = b } ] [ [| 3 |]; [| 5 |] ] in
  Store.save ~dir ~key:"k1" ~config:[] ~space:sp ~relations:[ r1 ];
  Alcotest.(check (option string)) "first key" (Some "k1") (tip_key dir);
  let sp2 = Space.create () in
  let d2 = Domain.make ~name:"D" ~size:8 () in
  let b2 = Space.alloc sp2 d2 in
  let r2 = Relation.of_tuples sp2 ~name:"two" [ { Relation.attr_name = "x"; block = b2 } ] [ [| 1 |] ] in
  Store.save ~dir ~key:"k2" ~config:[] ~space:sp2 ~relations:[ r2 ];
  Alcotest.(check (option string)) "second key" (Some "k2") (tip_key dir);
  let st = Store.load ~dir in
  Alcotest.(check bool) "old relation gone" true (Store.find st "one" = None);
  match Store.find st "two" with
  | None -> Alcotest.fail "new relation missing"
  | Some r -> Alcotest.(check (float 0.0)) "new relation contents" 1.0 (Relation.count r)

(* --- Crash-point matrix ---------------------------------------------

   Two small hand-built stores, A then B, saved to the same directory.
   [Faults.record_fs_ops] enumerates every file-system mutation the
   B-save makes; then, for each op index, we re-prime the directory
   with A and simulate a kill exactly there ([Faults.crash_at_fs_op]).
   Reopening after the crash must yield exactly A, exactly B, or a
   cleanly absent store — never a hang, a partial load, or a mix — and
   a subsequent save must recover to a healthy B despite whatever temp
   debris the crash left. *)

let named_domain name size =
  Domain.make ~name ~size
    ~element_names:(Array.init size (Printf.sprintf "%s%d" (String.lowercase_ascii name)))
    ()

let save_a dir =
  let sp = Space.create () in
  let b = Space.alloc sp (named_domain "D" 8) in
  let one = Relation.of_tuples sp ~name:"one" [ { Relation.attr_name = "x"; block = b } ] [ [| 3 |]; [| 5 |] ] in
  Store.save ~dir ~key:"kA" ~config:[ ("gen", "A") ] ~space:sp ~relations:[ one ]

let save_b dir =
  let sp = Space.create () in
  let bd = Space.alloc sp (named_domain "D" 8) in
  let be = Space.alloc sp (named_domain "E" 4) in
  let two = Relation.of_tuples sp ~name:"two" [ { Relation.attr_name = "x"; block = bd } ] [ [| 1 |] ] in
  let three =
    Relation.of_tuples sp ~name:"three"
      [ { Relation.attr_name = "x"; block = bd }; { Relation.attr_name = "y"; block = be } ]
      [ [| 0; 2 |]; [| 7; 3 |]; [| 4; 1 |] ]
  in
  Store.save ~dir ~key:"kB" ~config:[ ("gen", "B") ] ~space:sp ~relations:[ two; three ]

let check_store_is ctx which dir =
  let st = Store.load ~dir in
  let count name = match Store.find st name with Some r -> Relation.count r | None -> -1.0 in
  (match which with
  | `A ->
    Alcotest.(check string) (ctx ^ ": key") "kA" (Store.key st);
    Alcotest.(check (float 0.0)) (ctx ^ ": one") 2.0 (count "one");
    Alcotest.(check bool) (ctx ^ ": no two") true (Store.find st "two" = None)
  | `B ->
    Alcotest.(check string) (ctx ^ ": key") "kB" (Store.key st);
    Alcotest.(check (float 0.0)) (ctx ^ ": two") 1.0 (count "two");
    Alcotest.(check (float 0.0)) (ctx ^ ": three") 3.0 (count "three");
    Alcotest.(check bool) (ctx ^ ": no one") true (Store.find st "one" = None));
  (* A loadable store must also be fully healthy under verify. *)
  List.iter
    (fun (c : Store.check) ->
      if not c.Store.chk_ok then Alcotest.failf "%s: verify check %s failed: %s" ctx c.Store.chk_name c.Store.chk_detail)
    (Store.verify ~dir)

let starts_with prefix s = String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix

let test_crash_matrix () =
  (* Enumerate the crash points of an overwriting save on a scratch
     directory (the recording run really performs the save). *)
  let scratch = tmp_dir "store-crash-scratch" in
  save_a scratch;
  let ops = Faults.record_fs_ops (fun () -> save_b scratch) in
  let n = List.length ops in
  Printf.printf "crash matrix: %d crash points\n%!" n;
  Alcotest.(check bool) "save exposes a real crash surface (>= 20 ops)" true (n >= 20);
  (* Ordering invariants of the write protocol itself. *)
  let arr = Array.of_list ops in
  (* The snapshot serial must be durable before the old store is
     invalidated: a crash in the torn window must not reset the
     counter.  So every op before the manifest removal touches only
     the serial file (or its directory fsync), and the removal itself
     is the first manifest-touching op. *)
  let idx_remove =
    let found = ref (-1) in
    Array.iteri
      (fun i op -> if !found < 0 && starts_with "remove " op && Filename.basename op = "manifest" then found := i)
      arr;
    !found
  in
  Alcotest.(check bool) "overwrite removes the old manifest" true (idx_remove >= 0);
  for i = 0 to idx_remove - 1 do
    let op = arr.(i) in
    let about_serial =
      let base = Filename.basename op in
      base = "serial" || base = "serial.tmp" || starts_with "fsync-dir " op
    in
    if not about_serial then
      Alcotest.failf "op %d (%s) precedes manifest removal but is not the serial commit" (i + 1) op
  done;
  Alcotest.(check bool) "manifest removal is fsynced" true (starts_with "fsync-dir " arr.(idx_remove + 1));
  Alcotest.(check bool) "manifest rename is the commit point (second-to-last op)" true
    (starts_with "rename " arr.(n - 2) && Filename.basename arr.(n - 2) = "manifest");
  Alcotest.(check bool) "commit rename is made durable (last op)" true (starts_with "fsync-dir " arr.(n - 1));
  Array.iteri
    (fun i op ->
      if starts_with "rename " op then begin
        let target = String.sub op 7 (String.length op - 7) in
        Alcotest.(check string)
          (Printf.sprintf "op %d: rename of %s preceded by its temp fsync" (i + 1) target)
          ("fsync " ^ target ^ ".tmp") arr.(i - 1)
      end)
    arr;
  (* The matrix: kill at every single crash point, then reopen. *)
  let dir = tmp_dir "store-crash" in
  for i = 1 to n do
    ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir)));
    save_a dir;
    (match Faults.crash_at_fs_op i (fun () -> save_b dir) with
    | None -> Alcotest.failf "crash point %d/%d never fired" i n
    | Some label ->
      let ctx = Printf.sprintf "crash %d/%d (%s)" i n label in
      (match tip_key dir with
      | None ->
        (* Cleanly absent: exists agrees and load fails structurally. *)
        Alcotest.(check bool) (ctx ^ ": absent store does not exist") false (Store.exists ~dir);
        expect_bad_input (ctx ^ ": absent load") (fun () -> Store.load ~dir)
      | Some "kA" -> check_store_is ctx `A dir
      | Some "kB" -> check_store_is ctx `B dir
      | Some other -> Alcotest.failf "%s: impossible store key %S" ctx other);
      (* Recovery: a fresh save over the debris must yield a healthy B. *)
      save_b dir;
      check_store_is (ctx ^ ": recovery save") `B dir)
  done

(* --- Byte-flip fuzz -------------------------------------------------
   Every single-byte corruption of every store file must surface as a
   structured [Bad_input] — never an assert, a deserializer crash, or
   a silently wrong load. *)

let test_byte_flip_fuzz () =
  let dir = tmp_dir "store-fuzz" in
  save_b dir;
  let sd = Filename.concat dir "store" in
  let files = [ "manifest"; "relations.bdd"; "D.map"; "E.map" ] in
  let rng = Random.State.make [| 0xC0FFEE |] in
  List.iter
    (fun file ->
      let path = Filename.concat sd file in
      let pristine = In_channel.with_open_bin path In_channel.input_all in
      let len = String.length pristine in
      for _ = 1 to 25 do
        let pos = Random.State.int rng len in
        let flip = 1 + Random.State.int rng 255 in
        let b = Bytes.of_string pristine in
        Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor flip));
        Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc b);
        let ctx = Printf.sprintf "%s byte %d xor %#x" file pos flip in
        (match Store.load ~dir with
        | _ -> Alcotest.failf "%s: corruption loaded successfully" ctx
        | exception Solver_error.Error (Solver_error.Bad_input _) -> ()
        | exception e -> Alcotest.failf "%s: unstructured failure %s" ctx (Printexc.to_string e));
        Alcotest.(check bool) (ctx ^ ": verify flags it") true
          (List.exists (fun (c : Store.check) -> not c.Store.chk_ok) (Store.verify ~dir));
        (* Restore the pristine bytes for the next flip. *)
        Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc pristine)
      done)
    files;
  check_store_is "pristine after fuzz" `B dir

(* --- Reader-side race -----------------------------------------------
   [Store.load] racing a concurrent writer's re-saves must yield the
   old store, the new store, or a structured [Bad_input] (the window
   where the old manifest is already invalidated) — never a silent
   mix.  The manifest commit point plus per-file checksums carry the
   whole argument: a manifest that parses describes exactly one save,
   and data replaced underneath it fails its recorded CRC.  The
   snapshot counter observed by successful loads must be
   nondecreasing. *)

let test_reader_race () =
  let dir = tmp_dir "store-race" in
  save_a dir;
  let stop = Atomic.make false in
  let writes = Atomic.make 0 in
  let writer =
    Stdlib.Domain.spawn (fun () ->
        let i = ref 0 in
        while not (Atomic.get stop) do
          incr i;
          if !i land 1 = 0 then save_a dir else save_b dir;
          Atomic.incr writes
        done)
  in
  let loads = ref 0 and saw_a = ref 0 and saw_b = ref 0 and torn = ref 0 in
  let last_snapshot = ref 0 in
  let deadline = Unix.gettimeofday () +. 3.0 in
  (while Unix.gettimeofday () < deadline do
     incr loads;
     match Store.load ~dir with
     | st ->
       let count name = match Store.find st name with Some r -> Relation.count r | None -> -1.0 in
       (match Store.key st with
       | "kA" ->
         incr saw_a;
         Alcotest.(check (float 0.0)) "A: one" 2.0 (count "one");
         Alcotest.(check bool) "A: no two" true (Store.find st "two" = None)
       | "kB" ->
         incr saw_b;
         Alcotest.(check (float 0.0)) "B: two" 1.0 (count "two");
         Alcotest.(check (float 0.0)) "B: three" 3.0 (count "three");
         Alcotest.(check bool) "B: no one" true (Store.find st "one" = None)
       | k -> Alcotest.failf "impossible store key %S (a mixed load?)" k);
       if Store.snapshot st < !last_snapshot then
         Alcotest.failf "snapshot went backwards: %d after %d" (Store.snapshot st) !last_snapshot;
       last_snapshot := Store.snapshot st
     | exception Solver_error.Error (Solver_error.Bad_input _) -> incr torn
     | exception e -> Alcotest.failf "unstructured racing-load failure: %s" (Printexc.to_string e)
   done);
  Atomic.set stop true;
  Stdlib.Domain.join writer;
  Printf.printf "reader race: %d writes, %d loads (%d A, %d B, %d torn), last snapshot %d\n%!"
    (Atomic.get writes) !loads !saw_a !saw_b !torn !last_snapshot;
  Alcotest.(check bool) "raced against real churn (>= 10 writes)" true (Atomic.get writes >= 10);
  Alcotest.(check bool) "saw both generations" true (!saw_a > 0 && !saw_b > 0);
  (* The dir settles to the writer's final save and is healthy. *)
  match tip_key dir with
  | Some "kA" -> check_store_is "settled" `A dir
  | Some "kB" -> check_store_is "settled" `B dir
  | other -> Alcotest.failf "settled store unreadable: key %s" (Option.value other ~default:"<none>")

(* [verify] under the same swap churn: whatever instant it samples, it
   must return a well-formed check list — healthy or cleanly failing —
   and never raise.  The follower relies on the same contract from its
   two readers: [read_tip] never raises, and [load] either returns or
   raises [Solver_error.Error] — the only exception [Follow.poll]
   turns into a rejection. *)
let test_verify_under_swap () =
  let dir = tmp_dir "store-verify-swap" in
  save_b dir;
  let stop = Atomic.make false in
  let writer =
    Stdlib.Domain.spawn (fun () ->
        let i = ref 0 in
        while not (Atomic.get stop) do
          incr i;
          if !i land 1 = 0 then save_a dir else save_b dir
        done)
  in
  let verdicts = ref 0 and healthy = ref 0 and unhealthy = ref 0 in
  let deadline = Unix.gettimeofday () +. 2.0 in
  (while Unix.gettimeofday () < deadline do
     incr verdicts;
     (match Store.verify ~dir with
     | [] -> Alcotest.fail "verify returned an empty check list"
     | checks ->
       if List.for_all (fun (c : Store.check) -> c.Store.chk_ok) checks then incr healthy
       else incr unhealthy
     | exception e -> Alcotest.failf "verify raised under swap: %s" (Printexc.to_string e));
     (match Store.load ~dir with
     | _ | (exception Solver_error.Error _) -> ()
     | exception e -> Alcotest.failf "load raised outside Solver_error under swap: %s" (Printexc.to_string e));
     match Store.read_tip ~dir with
     | Some _ | None -> ()
     | exception e -> Alcotest.failf "read_tip raised under swap: %s" (Printexc.to_string e)
   done);
  Atomic.set stop true;
  Stdlib.Domain.join writer;
  Printf.printf "verify under swap: %d verdicts (%d healthy, %d transiently unhealthy)\n%!" !verdicts
    !healthy !unhealthy;
  Alcotest.(check bool) "caught at least one healthy instant" true (!healthy > 0)

(* --- verify / quarantine -------------------------------------------- *)

let test_verify_quarantine () =
  let dir = tmp_dir "store-verify" in
  save_b dir;
  let checks = Store.verify ~dir in
  (* manifest + relations.bdd + D.map + E.map + structural load *)
  Alcotest.(check int) "check count" 5 (List.length checks);
  Alcotest.(check bool) "healthy" true (List.for_all (fun (c : Store.check) -> c.Store.chk_ok) checks);
  Alcotest.(check bool) "nothing to quarantine elsewhere" true (Store.quarantine ~dir:(dir ^ "-none") = None);
  (match Store.verify ~dir:(dir ^ "-none") with
  | [ c ] -> Alcotest.(check bool) "missing store is one failing check" false c.Store.chk_ok
  | l -> Alcotest.failf "missing store: expected one check, got %d" (List.length l));
  Faults.corrupt_file (Filename.concat (Filename.concat dir "store") "relations.bdd") ~at:10 "XYZ";
  Alcotest.(check bool) "corruption detected" true
    (List.exists (fun (c : Store.check) -> not c.Store.chk_ok) (Store.verify ~dir));
  (match Store.quarantine ~dir with
  | None -> Alcotest.fail "expected a quarantine destination"
  | Some dest ->
    Alcotest.(check bool) "quarantine dir exists" true (Sys.is_directory dest);
    Alcotest.(check bool) "store gone after quarantine" false (Store.exists ~dir));
  (* The next save starts clean and is healthy again; a second
     quarantine picks a fresh suffix. *)
  save_b dir;
  check_store_is "rebuilt after quarantine" `B dir;
  match Store.quarantine ~dir with
  | Some dest2 -> Alcotest.(check bool) "fresh quarantine suffix" true (Filename.check_suffix dest2 ".broken.2")
  | None -> Alcotest.fail "second quarantine refused"

(* --- The query CLI: one answer path ----------------------------------
   `ptacli query` answers with no store, from a store miss (cold solve,
   then save) and from a store hit.  All three runs must print the same
   answer lines byte for byte: same relations, same element names, same
   tuple order. *)

let run_ptacli args =
  let log = Filename.temp_file "whalelam-query" ".out" in
  let logfd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid = Unix.create_process "../bin/ptacli.exe" (Array.of_list ("ptacli" :: args)) Unix.stdin logfd logfd in
  Unix.close logfd;
  let status = snd (Unix.waitpid [] pid) in
  let out = In_channel.with_open_bin log In_channel.input_all in
  Sys.remove log;
  if status <> Unix.WEXITED 0 then Alcotest.failf "ptacli %s failed:\n%s" (String.concat " " args) out;
  String.split_on_char '\n' out

let test_query_paths () =
  let check name program ~vuln =
    let jir = Filename.temp_file ("whalelam-query-" ^ name) ".jir" in
    Out_channel.with_open_bin jir (fun oc -> output_string oc (Jir.Jprinter.to_string program));
    (* Probe names: a heap stored into a field (so --leak finds who
       holds it), the variable it is allocated into, and a second
       allocated variable. *)
    let fg = Jir.Factgen.extract (Jir.Jparser.parse_file jir) in
    let names dom = Option.get (Jir.Factgen.element_names fg dom) in
    let vp0 = Jir.Factgen.relation fg "vP0" and stores = Jir.Factgen.relation fg "store" in
    let stored v = List.exists (function [ _; _; src ] -> src = v | _ -> false) stores in
    let v, h = List.find_map (function [ v; h ] when stored v -> Some (v, h) | _ -> None) vp0 |> Option.get in
    let v2 = List.find_map (function [ v2; _ ] when v2 <> v -> Some v2 | _ -> None) vp0 |> Option.get in
    let var i = (names "V").(i) in
    let flags =
      [ "--leak"; (names "H").(h); "--refine"; "--modref"; "--points-to"; var v; "--alias"; var v ^ "," ^ var v2 ]
      @ if vuln then [ "--vuln"; "PBEKeySpec.init" ] else []
    in
    let store = tmp_dir ("query-cli-" ^ name) in
    Fun.protect ~finally:(fun () ->
        ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote store)));
        Sys.remove jir)
    @@ fun () ->
    let query extra = run_ptacli (("query" :: jir :: flags) @ extra) in
    let answers lines =
      List.filter (fun l -> not (starts_with "query path:" l || starts_with "store:" l)) lines
    in
    let no_store = query [] in
    let miss = query [ "--store"; store ] in
    let hit = query [ "--store"; store ] in
    Alcotest.(check bool) (name ^ ": second run is a miss") true
      (List.exists (starts_with "query path: cold solve") miss);
    Alcotest.(check bool) (name ^ ": third run is a store hit") true
      (List.exists (starts_with "query path: store hit") hit);
    Alcotest.(check bool) (name ^ ": every family answered") true (List.length (answers no_store) > 10);
    Alcotest.(check (list string)) (name ^ ": store miss = no store") (answers no_store) (answers miss);
    Alcotest.(check (list string)) (name ^ ": store hit = no store") (answers no_store) (answers hit)
  in
  check "freetts"
    (Synth.Generator.generate (Synth.Profiles.params ~scale:0.01 (Option.get (Synth.Profiles.find "freetts"))))
    ~vuln:false;
  check "jce"
    (Synth.Generator.generate { Synth.Generator.default_params with n_classes = 8; jce_flavor = true })
    ~vuln:true

let () =
  Alcotest.run "store"
    [
      ("manifest", [ Alcotest.test_case "save/exists/read_tip/config" `Quick test_manifest ]);
      ("exactness", [ Alcotest.test_case "loaded gantt relations BDD-equal to fresh solve" `Quick test_round_trip_exact ]);
      ("serving", [ Alcotest.test_case "100+ warm queries match fresh answers, 10x faster" `Quick test_warm_serve_batch ]);
      ( "query-cli",
        [ Alcotest.test_case "no store, store miss and store hit print the same answers" `Quick test_query_paths ] );
      ("robustness", [ Alcotest.test_case "corrupt stores rejected" `Quick test_corruption ]);
      ("overwrite", [ Alcotest.test_case "re-save replaces the store atomically" `Quick test_overwrite ]);
      ( "crash-safety",
        [
          Alcotest.test_case "kill at every fs op: reopen is old, new, or cleanly absent" `Quick test_crash_matrix;
          Alcotest.test_case "every byte flip in every file is a structured error" `Quick test_byte_flip_fuzz;
          Alcotest.test_case "verify and quarantine" `Quick test_verify_quarantine;
        ] );
      ( "replication",
        [
          Alcotest.test_case "load racing a writer: old, new, or structured error" `Quick test_reader_race;
          Alcotest.test_case "verify under swap churn never raises" `Quick test_verify_under_swap;
        ] );
    ]
