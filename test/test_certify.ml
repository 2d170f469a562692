(* Semantic self-certification ([Pta.Certify]) tests:

   - a genuine fixpoint — cold, incremental, or loaded under a memory
     cap — passes certification, and the pass can be recorded in the
     store's mark file ([mark_certified]) and read back;
   - a single CRC-clean tuple flip that byte-level [Store.verify]
     cannot see fails certification with the violating rule (or the
     non-contained input) and bounded witness tuples;
   - the certification mark names the exact chain-tip identity:
     [save_delta] and [save] move the tip past it, and a save that
     commits while a mark is written stays the tip, unmarked;
   - a [Serve.Follow ~require_certified] follower rejects an
     uncertified candidate while the old snapshot keeps serving, and
     swaps the moment the mark appears. *)

module Analyses = Pta.Analyses
module Certify = Pta.Certify
module Incr = Pta.Incr
module Serve = Pta.Serve
module Engine = Datalog.Engine

let tmp_dir name =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) (Printf.sprintf "whalelam-%s-%d" name (Unix.getpid ())) in
  ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir)));
  dir

let gen_gantt () =
  let profile = Option.get (Synth.Profiles.find "gantt") in
  Synth.Generator.generate (Synth.Profiles.params ~scale:0.04 profile)

let gantt_fg = lazy (Jir.Factgen.extract (gen_gantt ()))

(* One shared base: a cold Algorithm 2 solve of gantt, persisted with
   the algo tag [certify_store] keys its checker construction on.
   Tests copy the directory rather than mutating it. *)
let base =
  lazy
    (let fg = Lazy.force gantt_fg in
     let r = Analyses.run_basic ~algo:Analyses.Algo2 fg in
     let dir = tmp_dir "certify-base" in
     Store.save ~dir ~key:"certify-base-key" ~config:[ ("algo", "algo2") ] ~space:(Engine.space r.Analyses.engine)
       ~relations:(Engine.declared_relations r.Analyses.engine);
     dir)

let copy_base name =
  let src = Lazy.force base in
  let dir = tmp_dir name in
  ignore (Sys.command (Printf.sprintf "cp -r %s %s" (Filename.quote src) (Filename.quote dir)));
  dir

let store_healthy dir =
  let checks = Store.verify ~dir in
  checks <> [] && List.for_all (fun (c : Store.check) -> c.Store.chk_ok) checks

(* The chain tip's (key, snapshot) identity, and whether a fresh load
   of the chain finds it certified. *)
let tip_ident dir = Option.map (fun (t : Store.tip) -> (t.key, t.snapshot)) (Store.read_tip ~dir)
let loads_certified dir = Store.certified (Store.load ~dir)

(* The identity in the mark file ([store/certified]: key, snapshot,
   CRC-32), if any — the mark as written, whether or not it still names
   the tip. *)
let mark_line dir =
  match In_channel.with_open_bin (Filename.concat dir "store/certified") In_channel.input_line with
  | exception Sys_error _ -> None
  | line -> Option.map (fun l -> String.concat " " (List.filteri (fun i _ -> i < 2) (String.split_on_char ' ' l))) line

let certify ?(dir_load = fun dir -> Store.load ~dir) dir =
  let st = dir_load dir in
  Certify.certify_store (Lazy.force gantt_fg) st

(* --- a genuine fixpoint certifies, and the mark round-trips --- *)

let test_cold_pass_and_mark () =
  let dir = copy_base "certify-pass" in
  let v = certify dir in
  (match v.Certify.v_failure with
  | None -> ()
  | Some f -> Alcotest.failf "clean store failed certification: %s" (Certify.failure_to_string f));
  Alcotest.(check bool) "passed" true (Certify.passed v);
  Alcotest.(check bool) "report counts rules" true (v.Certify.v_report.Certify.c_rules > 0);
  Alcotest.(check bool) "report counts strata" true (v.Certify.v_report.Certify.c_strata >= 1);
  Alcotest.(check bool) "report counts relations" true (v.Certify.v_report.Certify.c_relations > 0);
  (* verdict_lines lead with the structured ok line *)
  (match Certify.verdict_lines v with
  | first :: _ -> Alcotest.(check bool) "ok line" true (String.length first >= 11 && String.sub first 0 11 = "certify: ok")
  | [] -> Alcotest.fail "no verdict lines");
  (* The mark names the chain tip, and a load of that tip is certified. *)
  Alcotest.(check bool) "unmarked before" false (loads_certified dir);
  let ident = Store.mark_certified ~dir in
  Alcotest.(check bool) "mark returns the tip identity" true (tip_ident dir = Some ident);
  Alcotest.(check bool) "mark reads back" true (loads_certified dir);
  (* The rewritten manifest is still byte-healthy (fresh selfsum). *)
  Alcotest.(check bool) "marked store verifies" true (store_healthy dir)

(* --- CRC-clean corruption: verify green, certify red --- *)

let check_catches ~what dir relation =
  Store.corrupt_tuple_for_tests ~dir ~relation;
  Alcotest.(check bool) (what ^ ": store verify still green") true (store_healthy dir);
  let v = certify dir in
  Alcotest.(check bool) (what ^ ": certification fails") false (Certify.passed v);
  (match v.Certify.v_failure with
  | Some (Certify.Rule_not_closed { rule; witness; _ }) ->
    Alcotest.(check bool) (what ^ ": rule text present") true (String.length rule > 0);
    Alcotest.(check bool) (what ^ ": witness tuples present") true (witness.Certify.w_tuples <> []);
    Alcotest.(check bool) (what ^ ": witness total >= 1") true (witness.Certify.w_total >= 1.0)
  | Some (Certify.Input_not_contained { relation = r; witness }) ->
    Alcotest.(check bool) (what ^ ": input named") true (String.length r > 0);
    Alcotest.(check bool) (what ^ ": witness tuples present") true (witness.Certify.w_tuples <> [])
  | Some f -> Alcotest.failf "%s: unexpected failure kind: %s" what (Certify.failure_to_string f)
  | None -> Alcotest.failf "%s: no failure recorded" what);
  v

let test_derived_corruption_caught () =
  let dir = copy_base "certify-corrupt-derived" in
  let v = check_catches ~what:"derived vP flip" dir "vP" in
  (* Deleting a derived tuple re-derives in one application: this must
     surface as a rule-closure violation, with the rule's source
     position attached. *)
  match v.Certify.v_failure with
  | Some (Certify.Rule_not_closed { rule_pos; _ }) ->
    Alcotest.(check bool) "rule position attached" true (rule_pos <> None)
  | _ -> Alcotest.fail "expected Rule_not_closed for a derived-tuple deletion"

let test_input_corruption_caught () =
  let dir = copy_base "certify-corrupt-input" in
  (* Pick a genuinely non-empty extracted input relation that the
     store holds under the same name: deleting its first tuple must
     fail the containment check (inputs are checked before rules). *)
  let st = Store.load ~dir in
  let input_name =
    let inputs = Pta.Programs.input_relations (Lazy.force gantt_fg) in
    match
      List.find_opt
        (fun (name, tuples) -> tuples <> [] && Store.find st name <> None)
        inputs
    with
    | Some (name, _) -> name
    | None -> Alcotest.fail "no non-empty input relation stored"
  in
  let v = check_catches ~what:("input " ^ input_name ^ " flip") dir input_name in
  match v.Certify.v_failure with
  | Some (Certify.Input_not_contained { relation; _ }) ->
    Alcotest.(check string) "the corrupted input is named" input_name relation
  | Some (Certify.Rule_not_closed _) ->
    (* Legal when the deleted tuple is *also* re-derivable and the
       input check passed because extraction order differs — but with
       containment checked first this should not happen. *)
    Alcotest.fail "input deletion reported as rule violation (containment must be checked first)"
  | _ -> Alcotest.fail "expected Input_not_contained"

(* --- mark invalidation across the chain --- *)

let test_mark_invalidation () =
  let dir = copy_base "certify-mark-inval" in
  let marked = Store.mark_certified ~dir in
  Alcotest.(check bool) "marked" true (loads_certified dir);
  (* save_delta moves the tip: the stale mark stays in its file but no
     longer names the tip, so a load of the new tip is not certified. *)
  let st = Store.load ~dir in
  ignore (Store.save_delta ~dir ~key:"certify-rekeyed" ~config:(Store.config st) ~space:(Store.space st) ~deltas:[]);
  let marked_line = Some (Printf.sprintf "%s %d" (fst marked) (snd marked)) in
  Alcotest.(check (option string)) "mark survives textually" marked_line (mark_line dir);
  Alcotest.(check bool) "but no longer names the tip" true (tip_ident dir <> Some marked);
  Alcotest.(check bool) "so the new tip loads uncertified" false (loads_certified dir);
  (* A fresh full save leaves the mark file alone: a larger snapshot. *)
  let st2 = Store.load ~dir in
  Store.save ~dir ~key:"certify-resaved" ~config:(Store.config st2) ~space:(Store.space st2)
    ~relations:(Store.relations st2);
  Alcotest.(check bool) "the stale mark no longer names the tip" true
    (mark_line dir = marked_line && tip_ident dir <> Some marked);
  Alcotest.(check bool) "and the base loads uncertified" false (loads_certified dir);
  (* Re-marking after the save vouches for the new tip. *)
  let remarked = Store.mark_certified ~dir in
  Alcotest.(check bool) "re-mark names the new tip" true (tip_ident dir = Some remarked);
  Alcotest.(check bool) "and the new tip loads certified" true (loads_certified dir)

(* A certification marks the state it checked: once a later save has
   moved the tip, marking the checked identity raises and writes
   nothing, while marking the current tip still works. *)
let test_mark_checked_identity () =
  let dir = copy_base "certify-mark-ident" in
  let checked = Store.load ~dir in
  let key = Store.key checked and snapshot = Store.snapshot checked in
  Store.save ~dir ~key ~config:(Store.config checked) ~space:(Store.space checked)
    ~relations:(Store.relations checked);
  (match Store.mark_certified_ident ~dir ~key ~snapshot with
  | () -> Alcotest.fail "marked a checked identity that is no longer the tip"
  | exception Solver_error.Error (Solver_error.Bad_input _) -> ());
  Alcotest.(check (option string)) "no mark written" None (mark_line dir);
  Alcotest.(check bool) "the moved tip loads uncertified" false (loads_certified dir);
  match tip_ident dir with
  | None -> Alcotest.fail "no tip after the second save"
  | Some (key, snapshot) ->
    Store.mark_certified_ident ~dir ~key ~snapshot;
    Alcotest.(check bool) "the current tip marks and loads certified" true (loads_certified dir)

(* A save that commits at the first file operation of a mark stays the
   tip, unmarked, and loads its own data: the mark is written to its own
   file, never over the manifest it parsed. *)
let test_mark_races_save () =
  let dir = copy_base "certify-mark-race" in
  let tuples st = Relation.count (Option.get (Store.find st "vP")) in
  let before = tuples (Store.load ~dir) in
  let fired = ref false in
  Faults.set_fs_hook
    (Some
       (fun _ ->
         Faults.set_fs_hook None;
         fired := true;
         Store.corrupt_tuple_for_tests ~dir ~relation:"vP"));
  let marked = Fun.protect ~finally:(fun () -> Faults.set_fs_hook None) (fun () -> Store.mark_certified ~dir) in
  Alcotest.(check bool) "the save ran inside the mark" true !fired;
  (match Store.read_tip ~dir with
  | None -> Alcotest.fail "no tip after the racing save"
  | Some tip ->
    Alcotest.(check bool) "the newer save stays the tip" true (tip.Store.snapshot > snd marked);
    Alcotest.(check bool) "unmarked" false tip.Store.certified);
  let st = Store.load ~dir in
  Alcotest.(check bool) "it loads unmarked" false (Store.certified st);
  Alcotest.(check (float 0.0)) "with its own tuples" (before -. 1.0) (tuples st)

(* --- incremental and mem-capped results certify bit-identically --- *)

let test_incremental_and_memcap_pass () =
  let dir = copy_base "certify-incr" in
  (* The unchanged-program incremental path: an empty delta re-key.
     The folded chain still certifies against the same program. *)
  let st = Store.load ~dir in
  let fg = Lazy.force gantt_fg in
  let o =
    match Incr.update ~algo:Analyses.Algo2 ~store:st fg with
    | Ok o -> o
    | Error e -> Alcotest.failf "incremental update failed: %s" (Solver_error.to_string e)
  in
  let eng = o.Incr.engine in
  ignore
    (Store.save_delta ~dir ~key:"certify-incr-tip" ~config:[ ("algo", "algo2") ] ~space:(Engine.space eng)
       ~deltas:o.Incr.deltas);
  let v_incr = certify dir in
  (match v_incr.Certify.v_failure with
  | None -> ()
  | Some f -> Alcotest.failf "incremental chain failed certification: %s" (Certify.failure_to_string f));
  (* The same chain loaded under a paging memory cap certifies too:
     certification is a property of the relations, not of how the
     pages were resident. *)
  let v_capped = certify ~dir_load:(fun dir -> Store.load_with ~mem_cap_bytes:(2 * 1024 * 1024) ~dir ()) dir in
  match v_capped.Certify.v_failure with
  | None -> ()
  | Some f -> Alcotest.failf "mem-capped load failed certification: %s" (Certify.failure_to_string f)

(* A store's layout names the checker's domain order; a domain the
   program lacks is a shape mismatch, not an internal error. *)
let test_foreign_layout_refused () =
  let dir = tmp_dir "certify-foreign" in
  let sp = Space.create () in
  let qb = Space.alloc sp (Domain.make ~name:"Q" ~size:4 ()) in
  let r = Relation.of_tuples sp ~name:"vP" [ { Relation.attr_name = "q"; block = qb } ] [ [| 1 |] ] in
  Store.save ~dir ~key:"foreign-key" ~config:[ ("algo", "algo3") ] ~space:sp ~relations:[ r ];
  match (certify dir).Certify.v_failure with
  | Some (Certify.Shape_mismatch msg) ->
    Alcotest.(check string) "names the domain" "domain_order: unknown domain Q" msg
  | Some f -> Alcotest.failf "expected a shape mismatch, got %s" (Certify.failure_to_string f)
  | None -> Alcotest.fail "a foreign layout certified"

(* --- follower gate: require-certified --- *)

(* Hand-built tiny store a [Serve.t] accepts (a vP relation), so the
   Follow plumbing runs without a full analysis. *)
let save_tiny ~dir =
  let sp = Space.create () in
  let vdom = Domain.make ~name:"V" ~size:4 ~element_names:(Array.init 4 (Printf.sprintf "v%d")) () in
  let hdom = Domain.make ~name:"H" ~size:16 ~element_names:(Array.init 16 (Printf.sprintf "h%d")) () in
  let vb = Space.alloc sp vdom and hb = Space.alloc sp hdom in
  let vp =
    Relation.of_tuples sp ~name:"vP"
      [ { Relation.attr_name = "variable"; block = vb }; { Relation.attr_name = "heap"; block = hb } ]
      [ [| 0; 1 |]; [| 1; 2 |]; [| 2; 3 |]; [| 3; 5 |] ]
  in
  Store.save ~dir ~key:"tiny-certify-key" ~config:[] ~space:sp ~relations:[ vp ]

let test_follow_require_certified () =
  let dir = tmp_dir "certify-follow" in
  save_tiny ~dir;
  let source = Serve.Source.create (Serve.make (Store.load ~dir)) in
  let follower = Serve.Follow.make ~require_certified:true ~dir source in
  (match Serve.Follow.poll follower with
  | Serve.Follow.Unchanged -> ()
  | _ -> Alcotest.fail "initial poll should be Unchanged");
  let gen0 = Serve.Source.generation source in
  (* A CRC-clean semantic corruption commits a *new, uncertified*
     snapshot: the gate must reject the store it loads, and the old
     snapshot keeps serving (generation unchanged). *)
  Store.corrupt_tuple_for_tests ~dir ~relation:"vP";
  (match Serve.Follow.poll follower with
  | Serve.Follow.Rejected { reason } ->
    let mentions_cert =
      let rec find i =
        i + 9 <= String.length reason && (String.sub reason i 9 = "certified" || find (i + 1))
      in
      String.length reason >= 9 && find 0
    in
    Alcotest.(check bool) ("reject reason names certification: " ^ reason) true mentions_cert
  | Serve.Follow.Swapped _ -> Alcotest.fail "uncertified candidate was swapped in"
  | Serve.Follow.Unchanged -> Alcotest.fail "new snapshot went unnoticed");
  Alcotest.(check int) "old snapshot keeps serving" gen0 (Serve.Source.generation source);
  (* Marking the tip certified unblocks the very next poll. *)
  ignore (Store.mark_certified ~dir);
  (match Serve.Follow.poll follower with
  | Serve.Follow.Swapped _ -> ()
  | Serve.Follow.Rejected { reason } -> Alcotest.failf "certified candidate rejected: %s" reason
  | Serve.Follow.Unchanged -> Alcotest.fail "certified candidate went unnoticed");
  Alcotest.(check int) "swap bumped the generation" (gen0 + 1) (Serve.Source.generation source);
  (* A plain follower (no gate) takes uncertified saves as before. *)
  let plain = Serve.Follow.make ~dir source in
  Store.corrupt_tuple_for_tests ~dir ~relation:"vP";
  match Serve.Follow.poll plain with
  | Serve.Follow.Swapped _ -> ()
  | Serve.Follow.Rejected { reason } -> Alcotest.failf "ungated follower rejected a committed save: %s" reason
  | Serve.Follow.Unchanged -> Alcotest.fail "ungated follower missed the save"

(* The gate reads the mark from the manifests before any data file: an
   uncertified commit whose relations.bdd is corrupt is rejected as not
   certified, not as a checksum error, because nothing was loaded.  The
   old snapshot keeps answering, and a later certified save swaps in. *)
let test_follow_rejects_from_manifests () =
  let dir = tmp_dir "certify-follow-manifests" in
  save_tiny ~dir;
  ignore (Store.mark_certified ~dir);
  let source = Serve.Source.create (Serve.make (Store.load ~dir)) in
  let follower = Serve.Follow.make ~require_certified:true ~dir source in
  let ask () =
    let srv = Serve.Source.current source in
    (Serve.handle srv (Serve.overlay srv) "points-to v0").Serve.lines
  in
  let answer = ask () in
  Alcotest.(check bool) "the served snapshot answers" true (answer <> []);
  let gen0 = Serve.Source.generation source in
  save_tiny ~dir;
  Faults.corrupt_file (Filename.concat (Filename.concat dir "store") "relations.bdd") ~at:5 "XYZ";
  let contains s sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  (match Serve.Follow.poll follower with
  | Serve.Follow.Rejected { reason } ->
    Alcotest.(check bool) ("rejected as not certified: " ^ reason) true (contains reason "is not certified")
  | Serve.Follow.Swapped _ -> Alcotest.fail "a corrupt uncertified commit was swapped in"
  | Serve.Follow.Unchanged -> Alcotest.fail "the uncertified commit went unnoticed");
  Alcotest.(check int) "old snapshot keeps serving" gen0 (Serve.Source.generation source);
  Alcotest.(check (list string)) "old snapshot answers" answer (ask ());
  save_tiny ~dir;
  let _, snapshot = Store.mark_certified ~dir in
  match Serve.Follow.poll follower with
  | Serve.Follow.Swapped s -> Alcotest.(check int) "the certified save swaps in" snapshot s.snapshot
  | Serve.Follow.Rejected { reason } -> Alcotest.failf "certified save rejected: %s" reason
  | Serve.Follow.Unchanged -> Alcotest.fail "certified save went unnoticed"

(* The gate judges the store it loaded, not the identity it polled: a
   writer alternating [save] (uncertified) and [mark_certified] races
   a require-certified follower, so saves keep committing between the
   follower's identity read and its load.  Every swap must report the
   identity it actually served, and that store must be certified. *)
let test_follow_gate_under_churn () =
  let dir = tmp_dir "certify-follow-churn" in
  save_tiny ~dir;
  ignore (Store.mark_certified ~dir);
  let source = Serve.Source.create (Serve.make (Store.load ~dir)) in
  let follower = Serve.Follow.make ~require_certified:true ~dir source in
  let stop = Atomic.make false in
  let writer =
    Stdlib.Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          save_tiny ~dir;
          ignore (Store.mark_certified ~dir)
        done)
  in
  let swaps = ref 0 and rejects = ref 0 in
  let deadline = Unix.gettimeofday () +. 2.0 in
  while Unix.gettimeofday () < deadline do
    match Serve.Follow.poll follower with
    | Serve.Follow.Swapped { key; snapshot; _ } ->
      incr swaps;
      let served = Serve.store (Serve.Source.current source) in
      if Serve.Follow.served_ident follower <> (key, snapshot) || (Store.key served, Store.snapshot served) <> (key, snapshot)
      then
        Alcotest.failf "Swapped reports snapshot %d, but the follower serves snapshot %d" snapshot
          (Store.snapshot served);
      if not (Store.certified served) then Alcotest.failf "swapped in uncertified snapshot %d" snapshot
    | Serve.Follow.Rejected _ -> incr rejects
    | Serve.Follow.Unchanged -> ()
  done;
  Atomic.set stop true;
  Stdlib.Domain.join writer;
  Printf.printf "gate under churn: %d swaps, %d rejections\n%!" !swaps !rejects;
  Alcotest.(check bool) "swapped at least once" true (!swaps > 0)

let () =
  Alcotest.run "certify"
    [
      ( "certify",
        [
          Alcotest.test_case "cold fixpoint passes; mark round-trips" `Quick test_cold_pass_and_mark;
          Alcotest.test_case "CRC-clean derived-tuple flip: verify green, certify red" `Quick
            test_derived_corruption_caught;
          Alcotest.test_case "CRC-clean input-tuple flip: input containment fails" `Quick
            test_input_corruption_caught;
          Alcotest.test_case "incremental chain and mem-capped load both certify" `Quick
            test_incremental_and_memcap_pass;
          Alcotest.test_case "a domain the program lacks: shape mismatch" `Quick test_foreign_layout_refused;
        ] );
      ( "mark",
        [
          Alcotest.test_case "save_delta outdates the mark; save drops it" `Quick test_mark_invalidation;
          Alcotest.test_case "a moved tip refuses the checked identity's mark" `Quick test_mark_checked_identity;
          Alcotest.test_case "a save committed inside a mark stays the tip, unmarked" `Quick test_mark_races_save;
        ] );
      ( "follow",
        [
          Alcotest.test_case "require-certified rejects, then swaps once marked" `Quick
            test_follow_require_certified;
          Alcotest.test_case "the gate judges the store it loaded" `Quick test_follow_gate_under_churn;
          Alcotest.test_case "an unmarked tip is rejected before its data is read" `Quick
            test_follow_rejects_from_manifests;
        ] );
    ]
