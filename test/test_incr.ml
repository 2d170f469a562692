(* Incremental re-analysis tests: [Pta.Incr.update] against a stored
   gantt fixpoint, and the delta-layer store chain underneath it.

   - differential identity: whatever verdict an edit script draws
     (incremental, unchanged, or a cold fall-back), every relation of
     the updated engine is BDD-bit-identical to a cold solve of the
     edited program;
   - policy: append-only edits go [Incremental], retractions go
     [Cold (Removals _)], a byte-identical program goes [Unchanged];
   - chain: ten [save_delta] layers fold back to the right relation
     contents, before and after [compact], and the chain tip (not the
     stale base) is what [read_tip] reports;
   - crash safety: kill at every fs op of [save_delta] and [compact],
     reopen must be old tip, new tip, or (compact only) cleanly
     absent — never a mix — and a broken tail quarantines while the
     base keeps serving. *)

module Analyses = Pta.Analyses
module Incr = Pta.Incr
module Engine = Datalog.Engine

let tmp_dir name =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) (Printf.sprintf "whalelam-%s-%d" name (Unix.getpid ())) in
  ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir)));
  dir

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "update failed: %s" (Solver_error.to_string e)

(* The generator is deterministic in its params, so "the same program"
   is re-creatable at will and an edited copy diffs only by the edit. *)
let gen_gantt () =
  let profile = Option.get (Synth.Profiles.find "gantt") in
  Synth.Generator.generate (Synth.Profiles.params ~scale:0.04 profile)

(* One shared base: cold-solve the pristine gantt program and persist
   every declared relation (the incremental restart needs the working
   relations, not just the interface).  Tests copy this directory
   rather than mutating it. *)
let base =
  lazy
    (let fg = Jir.Factgen.extract (gen_gantt ()) in
     let r, cold_seconds = time (fun () -> Analyses.run_basic ~algo:Analyses.Algo3 fg) in
     let dir = tmp_dir "incr-base" in
     Store.save ~dir ~key:"base-key" ~config:[ ("algo", "algo3") ] ~space:(Engine.space r.Analyses.engine)
       ~relations:(Engine.declared_relations r.Analyses.engine);
     (dir, cold_seconds))

let copy_base name =
  let src, _ = Lazy.force base in
  let dir = tmp_dir name in
  ignore (Sys.command (Printf.sprintf "cp -r %s %s" (Filename.quote src) (Filename.quote dir)));
  dir

(* BDD-bit-identity between two engines over the same program text:
   both carry the same variable numbering, so canonical dump bytes
   decide semantic equality (same argument as test_store). *)
let check_engines_equal ctx (got : Engine.t) (want : Engine.t) =
  let gman = Space.man (Engine.space got) and wman = Space.man (Engine.space want) in
  let by_name eng = List.map (fun r -> (Relation.name r, r)) (Engine.declared_relations eng) in
  let gots = by_name got and wants = by_name want in
  Alcotest.(check int) (ctx ^ ": relation count") (List.length wants) (List.length gots);
  List.iter
    (fun (name, w) ->
      match List.assoc_opt name gots with
      | None -> Alcotest.failf "%s: relation %s missing from update" ctx name
      | Some g ->
        Alcotest.(check (float 0.0)) (ctx ^ ": " ^ name ^ " cardinality") (Relation.count w) (Relation.count g);
        Alcotest.(check bool) (ctx ^ ": " ^ name ^ " dump bytes") true
          (Bdd.serialize wman [ Relation.bdd w ] = Bdd.serialize gman [ Relation.bdd g ]))
    wants

let update_against dir fg = ok (Incr.update ~algo:Analyses.Algo3 ~store:(Store.load ~dir) fg)

(* --- The headline case: one appended method, incremental, identical,
   and much faster than the cold solve it replaces. ------------------- *)

let test_add_method_incremental () =
  let dir = copy_base "incr-addm" in
  let _, cold_base_seconds = Lazy.force base in
  let p = gen_gantt () in
  let desc = Synth.Edits.apply p { Synth.Edits.kind = Synth.Edits.Add_method; seed = 0 } in
  Printf.printf "edit: %s\n%!" desc;
  let fg = Jir.Factgen.extract p in
  let o, inc_seconds = time (fun () -> update_against dir fg) in
  Alcotest.(check string) "verdict" "incremental" (Incr.verdict_to_string o.Incr.verdict);
  Alcotest.(check bool) "some input gained tuples" true (o.Incr.changed_inputs <> []);
  Alcotest.(check bool) "solve ran (stats present)" true (o.Incr.stats <> None);
  let cold, cold_seconds = time (fun () -> Analyses.run_basic ~algo:Analyses.Algo3 fg) in
  check_engines_equal "add-method" o.Incr.engine cold.Analyses.engine;
  (* Persist the update as a delta layer: the chain tip must now carry
     the new identity, fold back bit-identically, and verify clean. *)
  let layer =
    Store.save_delta ~dir ~key:"edited-key" ~config:[ ("algo", "algo3") ] ~space:(Engine.space o.Incr.engine)
      ~deltas:o.Incr.deltas
  in
  Alcotest.(check int) "first delta layer" 1 layer;
  Alcotest.(check bool) "read_tip follows the chain tip" true
    (Store.read_tip ~dir = Some { Store.key = "edited-key"; snapshot = 2; layers = 1; certified = false });
  let st = Store.load ~dir in
  Alcotest.(check string) "loaded key is the tip's" "edited-key" (Store.key st);
  Alcotest.(check int) "one layer folded" 1 (Store.layers st);
  List.iter
    (fun r ->
      let name = Relation.name r in
      match Store.find st name with
      | None -> Alcotest.failf "chain load lost %s" name
      | Some ld -> Alcotest.(check (float 0.0)) ("chain " ^ name) (Relation.count r) (Relation.count ld))
    (Engine.declared_relations o.Incr.engine);
  List.iter
    (fun (c : Store.check) ->
      if not c.Store.chk_ok then Alcotest.failf "verify after save_delta: %s: %s" c.Store.chk_name c.Store.chk_detail)
    (Store.verify ~dir);
  let cold_ref = Float.max cold_seconds cold_base_seconds in
  Printf.printf "add-method: cold %.2fs, incremental update %.2fs (%.1fx)\n%!" cold_ref inc_seconds
    (cold_ref /. inc_seconds);
  Alcotest.(check bool) "incremental at least 5x faster than cold" true (inc_seconds *. 5.0 <= cold_ref)

let test_unchanged () =
  let dir = copy_base "incr-unchanged" in
  let fg = Jir.Factgen.extract (gen_gantt ()) in
  let o = update_against dir fg in
  Alcotest.(check string) "verdict" "unchanged" (Incr.verdict_to_string o.Incr.verdict);
  Alcotest.(check bool) "no deltas" true (o.Incr.deltas = []);
  Alcotest.(check bool) "nothing solved" true (o.Incr.stats = None);
  (* The adopted fixpoint must still be the real one. *)
  let cold = Analyses.run_basic ~algo:Analyses.Algo3 (Jir.Factgen.extract (gen_gantt ())) in
  check_engines_equal "unchanged" o.Incr.engine cold.Analyses.engine

let test_removal_goes_cold () =
  let dir = copy_base "incr-removal" in
  let p = gen_gantt () in
  let desc = Synth.Edits.apply p { Synth.Edits.kind = Synth.Edits.Remove_alloc; seed = 0 } in
  Printf.printf "edit: %s\n%!" desc;
  let fg = Jir.Factgen.extract p in
  let o = update_against dir fg in
  (match o.Incr.verdict with
  | Incr.Cold (Incr.Removals rels) -> Alcotest.(check bool) "names the shrunk inputs" true (rels <> [])
  | v -> Alcotest.failf "expected Cold (Removals _), got %s" (Incr.verdict_to_string v));
  let cold = Analyses.run_basic ~algo:Analyses.Algo3 fg in
  check_engines_equal "remove-alloc" o.Incr.engine cold.Analyses.engine

(* --- Randomized edit scripts: 1-3 edits of any kind, update once,
   always bit-identical to cold, verdict consistent with the policy. -- *)

let test_random_edit_scripts () =
  let rng = Random.State.make [| 0xED175 |] in
  for script = 1 to 4 do
    let dir = copy_base (Printf.sprintf "incr-script%d" script) in
    let p = gen_gantt () in
    let n_edits = 1 + Random.State.int rng 3 in
    let kinds = [| Synth.Edits.Add_method; Synth.Edits.Add_alloc; Synth.Edits.Remove_alloc |] in
    let specs =
      List.init n_edits (fun _ ->
          { Synth.Edits.kind = kinds.(Random.State.int rng 3); seed = Random.State.int rng 100 })
    in
    let removed_any = List.exists (fun s -> s.Synth.Edits.kind = Synth.Edits.Remove_alloc) specs in
    List.iter (fun s -> Printf.printf "script %d: %s\n%!" script (Synth.Edits.apply p s)) specs;
    let fg = Jir.Factgen.extract p in
    let o = update_against dir fg in
    Printf.printf "script %d: verdict %s\n%!" script (Incr.verdict_to_string o.Incr.verdict);
    if removed_any then
      Alcotest.(check bool)
        (Printf.sprintf "script %d: retraction cannot be incremental" script)
        true
        (match o.Incr.verdict with Incr.Cold _ -> true | _ -> false);
    let cold = Analyses.run_basic ~algo:Analyses.Algo3 fg in
    check_engines_equal (Printf.sprintf "script %d" script) o.Incr.engine cold.Analyses.engine
  done

(* --- Migration: a store saved before Algorithm 3 took bddbddb's
   variable order still certifies, and the first edit against it goes
   cold to a result equal to a cold solve. ------------------------- *)

let declaration_order = [ "V"; "H"; "F"; "T"; "I"; "N"; "M"; "Z" ]

let test_old_order_store () =
  let fg = Jir.Factgen.extract (gen_gantt ()) in
  let old, _ = Analyses.prepare_basic ~domain_order:declaration_order ~algo:Analyses.Algo3 fg in
  ignore (Engine.run old);
  let dir = tmp_dir "incr-old-order" in
  Store.save ~dir ~key:"old-order-key" ~config:[ ("algo", "algo3") ] ~space:(Engine.space old)
    ~relations:(Engine.declared_relations old);
  let current, _ = Analyses.prepare_basic ~algo:Analyses.Algo3 fg in
  Alcotest.(check (option string)) "the program's own order differs" (Some "block V#0 moved")
    (Space.layout_mismatch ~stored:(Store.space (Store.load ~dir)) ~current:(Engine.space current));
  let v = Pta.Certify.certify_store fg (Store.load ~dir) in
  (match v.Pta.Certify.v_failure with
  | None -> ()
  | Some f -> Alcotest.failf "old-order store failed certification: %s" (Pta.Certify.failure_to_string f));
  let p = gen_gantt () in
  Printf.printf "edit: %s\n%!" (Synth.Edits.apply p { Synth.Edits.kind = Synth.Edits.Add_method; seed = 0 });
  let fg' = Jir.Factgen.extract p in
  let o = update_against dir fg' in
  (match o.Incr.verdict with
  | Incr.Cold (Incr.Layout_changed _) -> ()
  | v -> Alcotest.failf "expected Cold (Layout_changed _), got %s" (Incr.verdict_to_string v));
  check_engines_equal "old-order store" o.Incr.engine (Analyses.run_basic ~algo:Analyses.Algo3 fg').Analyses.engine;
  Alcotest.(check bool) "the cold result certifies" true
    (Pta.Certify.passed
       (Pta.Certify.certify_engine ~fresh_inputs:(Pta.Programs.input_relations fg') o.Incr.engine))

(* --- Synthetic chain: cheap hand-built store, ten layers, compact. -- *)

let named_domain name size =
  Domain.make ~name ~size
    ~element_names:(Array.init size (Printf.sprintf "%s%d" (String.lowercase_ascii name)))
    ()

(* A one-relation store: [r] over an 8-bit domain.  [mk_space] rebuilds
   the identical variable layout so cross-manager delta saves are
   legal, exactly as an update run would. *)
let mk_space () =
  let sp = Space.create () in
  let b = Space.alloc sp (named_domain "D" 256) in
  (sp, b)

let save_chain_base dir tuples =
  let sp, b = mk_space () in
  let r =
    Relation.of_tuples sp ~name:"r" [ { Relation.attr_name = "x"; block = b } ] (List.map (fun x -> [| x |]) tuples)
  in
  Store.save ~dir ~key:"k0" ~config:[ ("gen", "chain") ] ~space:sp ~relations:[ r ]

let save_chain_delta dir ~key ~add ~remove =
  let sp, b = mk_space () in
  let mk tuples =
    Relation.bdd (Relation.of_tuples sp ~name:"d" [ { Relation.attr_name = "x"; block = b } ] (List.map (fun x -> [| x |]) tuples))
  in
  Store.save_delta ~dir ~key ~config:[ ("gen", "chain") ] ~space:sp ~deltas:[ ("r", mk add, mk remove) ]

let sorted_tuples st =
  match Store.find st "r" with
  | None -> Alcotest.fail "relation r missing"
  | Some r -> List.sort compare (List.map (fun t -> t.(0)) (Relation.tuples r))

(* The chain tip's (key, snapshot) identity, as a follower compares it. *)
let tip_ident dir = Option.map (fun (t : Store.tip) -> (t.key, t.snapshot)) (Store.read_tip ~dir)

let check_chain ctx dir ~expect ~key ~snapshot ~layers =
  let st = Store.load ~dir in
  Alcotest.(check (list int)) (ctx ^ ": folded tuples") (List.sort compare expect) (sorted_tuples st);
  Alcotest.(check string) (ctx ^ ": tip key") key (Store.key st);
  Alcotest.(check int) (ctx ^ ": snapshot") snapshot (Store.snapshot st);
  Alcotest.(check int) (ctx ^ ": layers") layers (Store.layers st);
  Alcotest.(check bool) (ctx ^ ": read_tip is tip") true (Store.read_tip ~dir = Some { Store.key; snapshot; layers; certified = Store.certified st });
  List.iter
    (fun (c : Store.check) ->
      if not c.Store.chk_ok then Alcotest.failf "%s: verify: %s: %s" ctx c.Store.chk_name c.Store.chk_detail)
    (Store.verify ~dir)

let test_ten_layer_chain () =
  let dir = tmp_dir "incr-chain" in
  save_chain_base dir [ 0; 1 ];
  let expect = ref [ 0; 1 ] in
  for i = 1 to 10 do
    (* Layer 5 also retracts tuple 0, exercising the fold's subtract. *)
    let add = [ i + 1 ] and remove = if i = 5 then [ 0 ] else [] in
    let layer = save_chain_delta dir ~key:(Printf.sprintf "k%d" i) ~add ~remove in
    Alcotest.(check int) (Printf.sprintf "layer index %d" i) i layer;
    expect := List.filter (fun x -> not (List.mem x remove)) !expect @ add;
    check_chain (Printf.sprintf "after layer %d" i) dir ~expect:!expect ~key:(Printf.sprintf "k%d" i)
      ~snapshot:(i + 1) ~layers:i
  done;
  Alcotest.(check (option int)) "read_layers sees 10" (Some 10) (Store.read_layers ~dir);
  (* Compact: same contents, same tip key, one more snapshot, no layers. *)
  let squashed = Store.compact ~dir in
  Alcotest.(check int) "compacted 10 layers" 10 squashed;
  check_chain "after compact" dir ~expect:!expect ~key:"k10" ~snapshot:12 ~layers:0;
  Alcotest.(check int) "compact with no layers is a no-op" 0 (Store.compact ~dir);
  (* The chain keeps growing on top of the new base. *)
  let layer = save_chain_delta dir ~key:"k11" ~add:[ 100 ] ~remove:[] in
  Alcotest.(check int) "fresh chain restarts at layer 1" 1 layer;
  check_chain "post-compact delta" dir ~expect:(100 :: !expect) ~key:"k11" ~snapshot:13 ~layers:1

(* --- One grammar, two headers: a line that belongs to the other kind
   of manifest is malformed even when the selfsum vouches for it. ---- *)

(* Append [extra] to the manifest at [path] and re-sign it, so only
   the grammar can object. *)
let inject_line path extra =
  let body =
    In_channel.with_open_bin path In_channel.input_lines
    |> List.filter (fun l -> l <> "end" && not (String.starts_with ~prefix:"selfsum " l))
  in
  let text = String.concat "" (List.map (fun l -> l ^ "\n") (body @ [ extra ])) in
  Out_channel.with_open_bin path (fun oc ->
      Printf.fprintf oc "%sselfsum %s\nend\n" text (Crc32.to_hex (Crc32.string text)))

let expect_unrecognized ctx dir line =
  match Store.load ~dir with
  | _ -> Alcotest.failf "%s: loaded despite %S" ctx line
  | exception Solver_error.Error e ->
    let msg = Solver_error.to_string e in
    let suffix = "line: " ^ line in
    Alcotest.(check bool) (ctx ^ ": " ^ msg) true (String.ends_with ~suffix msg)

let test_foreign_lines () =
  let dir = tmp_dir "incr-grammar" in
  let store f = Filename.concat (Filename.concat dir "store") f in
  save_chain_base dir [ 0 ];
  ignore (save_chain_delta dir ~key:"k1" ~add:[ 1 ] ~remove:[]);
  inject_line (store "layer.1.manifest") "certified k1 2";
  expect_unrecognized "base line in a layer" dir "certified k1 2";
  Alcotest.(check (option int)) "verify blames layer 1" (Some 1) (Store.first_broken_layer (Store.verify ~dir));
  save_chain_base dir [ 0 ];
  inject_line (store "manifest") "delta r";
  expect_unrecognized "layer line in a base" dir "delta r";
  Alcotest.(check bool) "no tip" true (Store.read_tip ~dir = None)

(* --- Layout diagnostics name what changed. ------------------------ *)

let layout_of domains =
  let sp = Space.create () in
  List.iter (fun (name, size) -> ignore (Space.alloc sp (named_domain name size))) domains;
  sp

let test_layout_moved () =
  let stored = layout_of [ ("D", 256); ("E", 256) ] in
  Alcotest.(check (option string)) "same layout" None
    (Space.layout_mismatch ~stored ~current:(layout_of [ ("D", 256); ("E", 256) ]));
  Alcotest.(check (option string)) "swapped blocks" (Some "block D#0 moved")
    (Space.layout_mismatch ~stored ~current:(layout_of [ ("E", 256); ("D", 256) ]))

let test_layout_width () =
  (* D shrinks by as many bits as E grows: same variable count. *)
  Alcotest.(check (option string)) "traded widths" (Some "block widths changed (D#0: 8 bits stored, 4 now)")
    (Space.layout_mismatch
       ~stored:(layout_of [ ("D", 256); ("E", 16) ])
       ~current:(layout_of [ ("D", 16); ("E", 256) ]))

(* --- The commit cycle: [Incr.commit] writes, certifies and marks the
   identity it committed, once.  A save by someone else that commits at
   the first fs op of that mark stays the tip, unmarked, and the commit
   reports the refused mark. --- *)

let test_commit_marks_own_identity () =
  let dir = tmp_dir "incr-commit" in
  let profile = Option.get (Synth.Profiles.find "gantt") in
  let program edits =
    let p = Synth.Generator.generate (Synth.Profiles.params ~scale:0.02 profile) in
    List.iter (fun seed -> ignore (Synth.Edits.apply p { Synth.Edits.kind = Synth.Edits.Add_method; seed })) edits;
    Jir.Jprinter.to_string p
  in
  let base = ok (Analyses.solve_basic ~algo:Analyses.Algo3 (Jir.Factgen.extract (Jir.Jparser.parse (program [])))) in
  Store.save ~dir ~key:"base-key" ~config:[ ("algo", "algo3") ] ~space:(Engine.space base.Analyses.engine)
    ~relations:(Engine.declared_relations base.Analyses.engine);
  let commit edits =
    match
      ok
        (Incr.commit ~certify:true ~compact_every:0 ~dir ~program_path:"gantt.jir" ~program_bytes:(program edits) ())
    with
    | Incr.Committed c -> c
    | Incr.Current _ -> Alcotest.fail "an edited program read as current"
  in
  let c = commit [ 0 ] in
  Alcotest.(check string) "verdict" "incremental" (Incr.verdict_to_string c.Incr.c_outcome.Incr.verdict);
  Alcotest.(check bool) "certified before the write" true (Option.map Pta.Certify.passed c.Incr.c_check = Some true);
  Alcotest.(check bool) "marked" true (c.Incr.c_mark = Incr.Marked);
  Alcotest.(check bool) "the committed layer is the marked tip" true
    (Store.read_tip ~dir = Some { Store.key = c.Incr.c_key; snapshot = c.Incr.c_snapshot; layers = 1; certified = true });
  (match ok (Incr.commit ~certify:true ~compact_every:0 ~dir ~program_path:"gantt.jir" ~program_bytes:(program [ 0 ]) ()) with
  | Incr.Current st -> Alcotest.(check bool) "a second commit of the same bytes is current" true (Store.certified st)
  | Incr.Committed _ -> Alcotest.fail "the same program committed twice");
  let interloper = ref None in
  Faults.set_fs_hook
    (Some
       (fun label ->
         if Filename.basename label = "certified.tmp" then begin
           Faults.set_fs_hook None;
           let st = Store.load ~dir in
           interloper :=
             Some
               (Store.save_snapshot ~dir ~key:"interloper" ~config:(Store.config st) ~space:(Store.space st)
                  ~relations:(Store.relations st))
         end));
  let c = Fun.protect ~finally:(fun () -> Faults.set_fs_hook None) (fun () -> commit [ 0; 1 ]) in
  let snapshot = match !interloper with Some s -> s | None -> Alcotest.fail "the mark wrote no file" in
  (match c.Incr.c_mark with
  | Incr.Mark_refused _ -> ()
  | Incr.Marked | Incr.Not_certifying -> Alcotest.fail "the commit did not report the refused mark");
  Alcotest.(check bool) "the interloping save stays the tip, unmarked" true
    (Store.read_tip ~dir = Some { Store.key = "interloper"; snapshot; layers = 0; certified = false });
  Alcotest.(check bool) "and loads unmarked" false (Store.certified (Store.load ~dir))

(* --- Crash matrix for save_delta: the base is never touched, so every
   crash point must reopen as old tip or new tip — absent is a bug. --- *)

let test_save_delta_crash_matrix () =
  let scratch = tmp_dir "incr-crash-scratch" in
  save_chain_base scratch [ 0; 1 ];
  ignore (save_chain_delta scratch ~key:"k1" ~add:[ 2 ] ~remove:[]);
  let ops = Faults.record_fs_ops (fun () -> ignore (save_chain_delta scratch ~key:"k2" ~add:[ 3 ] ~remove:[ 0 ])) in
  let n = List.length ops in
  Printf.printf "save_delta crash matrix: %d crash points\n%!" n;
  Alcotest.(check bool) "save_delta has a real crash surface" true (n >= 6);
  let dir = tmp_dir "incr-crash" in
  for i = 1 to n do
    ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir)));
    save_chain_base dir [ 0; 1 ];
    ignore (save_chain_delta dir ~key:"k1" ~add:[ 2 ] ~remove:[]);
    (match Faults.crash_at_fs_op i (fun () -> ignore (save_chain_delta dir ~key:"k2" ~add:[ 3 ] ~remove:[ 0 ])) with
    | None -> Alcotest.failf "crash point %d/%d never fired" i n
    | Some label ->
      let ctx = Printf.sprintf "crash %d/%d (%s)" i n label in
      (match tip_ident dir with
      | Some ("k1", 2) -> check_chain ctx dir ~expect:[ 0; 1; 2 ] ~key:"k1" ~snapshot:2 ~layers:1
      | Some ("k2", 3) -> check_chain ctx dir ~expect:[ 1; 2; 3 ] ~key:"k2" ~snapshot:3 ~layers:2
      | other ->
        Alcotest.failf "%s: ident neither old nor new tip: %s" ctx
          (match other with Some (k, s) -> Printf.sprintf "(%s, %d)" k s | None -> "<none>"));
      (* Recovery: appending over the debris must land a healthy k2. *)
      ignore (save_chain_delta dir ~key:"k2r" ~add:[ 3 ] ~remove:[ 0 ]);
      match tip_ident dir with
      | Some (("k2" | "k2r"), _) ->
        let st = Store.load ~dir in
        Alcotest.(check (list int)) (ctx ^ ": recovered tuples") [ 1; 2; 3 ] (sorted_tuples st)
      | other ->
        Alcotest.failf "%s: recovery ident %s" ctx
          (match other with Some (k, s) -> Printf.sprintf "(%s, %d)" k s | None -> "<none>"))
  done

(* --- Crash matrix for compact: old chain, new base, or cleanly
   absent (the full save's torn window), never a mix. ----------------- *)

let test_compact_crash_matrix () =
  let prime dir =
    ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir)));
    save_chain_base dir [ 0; 1 ];
    ignore (save_chain_delta dir ~key:"k1" ~add:[ 2 ] ~remove:[]);
    ignore (save_chain_delta dir ~key:"k2" ~add:[ 3 ] ~remove:[ 0 ])
  in
  let scratch = tmp_dir "incr-compact-scratch" in
  prime scratch;
  let ops = Faults.record_fs_ops (fun () -> ignore (Store.compact ~dir:scratch)) in
  let n = List.length ops in
  Printf.printf "compact crash matrix: %d crash points\n%!" n;
  Alcotest.(check bool) "compact has a real crash surface" true (n >= 6);
  let dir = tmp_dir "incr-compact-crash" in
  for i = 1 to n do
    prime dir;
    match Faults.crash_at_fs_op i (fun () -> ignore (Store.compact ~dir)) with
    | None -> Alcotest.failf "crash point %d/%d never fired" i n
    | Some label ->
      let ctx = Printf.sprintf "compact crash %d/%d (%s)" i n label in
      (match tip_ident dir with
      | Some ("k2", 3) ->
        (* Old chain (layer files may already be partly gone only
           after the new base committed, so the chain must be whole). *)
        check_chain ctx dir ~expect:[ 1; 2; 3 ] ~key:"k2" ~snapshot:3 ~layers:2
      | Some ("k2", 4) ->
        let st = Store.load ~dir in
        Alcotest.(check (list int)) (ctx ^ ": compacted tuples") [ 1; 2; 3 ] (sorted_tuples st)
      | Some (k, s) -> Alcotest.failf "%s: impossible ident (%s, %d)" ctx k s
      | None ->
        Alcotest.(check bool) (ctx ^ ": cleanly absent") false (Store.exists ~dir));
      (* Recovery: a fresh base save over whatever is left. *)
      save_chain_base dir [ 7 ];
      let st = Store.load ~dir in
      Alcotest.(check (list int)) (ctx ^ ": recovery tuples") [ 7 ] (sorted_tuples st)
  done

(* --- Torn tail: corrupt one layer, quarantine it, base keeps serving. *)

let test_quarantine_torn_tail () =
  let dir = tmp_dir "incr-torn" in
  save_chain_base dir [ 0 ];
  ignore (save_chain_delta dir ~key:"k1" ~add:[ 1 ] ~remove:[]);
  ignore (save_chain_delta dir ~key:"k2" ~add:[ 2 ] ~remove:[]);
  ignore (save_chain_delta dir ~key:"k3" ~add:[ 3 ] ~remove:[]);
  Faults.corrupt_file (Filename.concat (Filename.concat dir "store") "layer.2.bdd") ~at:5 "XYZ";
  let checks = Store.verify ~dir in
  Alcotest.(check bool) "corruption detected" true (List.exists (fun (c : Store.check) -> not c.Store.chk_ok) checks);
  Alcotest.(check (option int)) "cut point is layer 2" (Some 2) (Store.first_broken_layer checks);
  (match Store.quarantine_layers ~dir ~from_layer:2 with
  | None -> Alcotest.fail "expected a quarantine destination"
  | Some dest ->
    Alcotest.(check bool) "quarantine dir exists" true (Sys.is_directory dest);
    Alcotest.(check bool) "base manifest still there" true (Store.exists ~dir));
  (* Base + layer 1 keep serving; the chain can then regrow. *)
  check_chain "after tail quarantine" dir ~expect:[ 0; 1 ] ~key:"k1" ~snapshot:2 ~layers:1;
  ignore (save_chain_delta dir ~key:"k2b" ~add:[ 9 ] ~remove:[]);
  check_chain "regrown chain" dir ~expect:[ 0; 1; 9 ] ~key:"k2b" ~snapshot:5 ~layers:2;
  (* A corrupt base is not a layer problem: first_broken_layer demurs. *)
  Faults.corrupt_file (Filename.concat (Filename.concat dir "store") "relations.bdd") ~at:10 "XYZ";
  let checks = Store.verify ~dir in
  Alcotest.(check bool) "base corruption detected" true
    (List.exists (fun (c : Store.check) -> not c.Store.chk_ok) checks);
  Alcotest.(check (option int)) "no layer cut for a broken base" None (Store.first_broken_layer checks)

let () =
  Alcotest.run "incr"
    [
      ( "update",
        [
          Alcotest.test_case "add-method: incremental, bit-identical, 5x faster" `Quick test_add_method_incremental;
          Alcotest.test_case "identical program: unchanged, nothing solved" `Quick test_unchanged;
          Alcotest.test_case "removal: cold fall-back, still identical" `Quick test_removal_goes_cold;
          Alcotest.test_case "random edit scripts always match cold" `Quick test_random_edit_scripts;
          Alcotest.test_case "old-order store: certifies, first edit goes cold" `Quick test_old_order_store;
          Alcotest.test_case "commit marks its own identity; a racing save stays unmarked" `Quick
            test_commit_marks_own_identity;
        ] );
      ( "layout",
        [
          Alcotest.test_case "moved blocks are named" `Quick test_layout_moved;
          Alcotest.test_case "a width change says so" `Quick test_layout_width;
        ] );
      ( "chain",
        [
          Alcotest.test_case "ten layers fold correctly, before and after compact" `Quick test_ten_layer_chain;
          Alcotest.test_case "torn tail quarantines, base keeps serving" `Quick test_quarantine_torn_tail;
          Alcotest.test_case "a line under the other header is malformed" `Quick test_foreign_lines;
        ] );
      ( "crash-safety",
        [
          Alcotest.test_case "kill at every save_delta fs op: old tip or new tip" `Quick test_save_delta_crash_matrix;
          Alcotest.test_case "kill at every compact fs op: chain, base, or absent" `Quick test_compact_crash_matrix;
        ] );
    ]
