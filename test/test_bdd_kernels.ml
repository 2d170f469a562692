(* Randomized differential tests for the specialized BDD apply kernels
   (and/or/diff), the order-preserving replace fast path, and the
   GC-surviving op cache.

   A seeded random operation sequence is run over three BDD-backed
   relations while the pure tuple-set Ref_relation mirrors every step;
   explicit [Bdd.gc] calls are interleaved so every result must stay
   correct across node-slot reuse, table growth, and cache sweeps.
   Renames are chosen so both the monotone (order-preserving) replace
   path and the generic mk_ite path are exercised. *)

let seed = 0x5eed
let steps = 160
let gc_every = 12
let initial_tuples = 120

let dom = Domain.make ~name:"D" ~size:64 ()

type st = {
  sp : Space.t;
  man : Bdd.man;
  b : Space.block array; (* three interleaved instances of D *)
  rels : Relation.t array; (* all over attrs x@b.(0), y@b.(1) *)
  refs : Ref_relation.t array;
}

let attrs st = [ { Relation.attr_name = "x"; block = st.b.(0) }; { attr_name = "y"; block = st.b.(1) } ]

let sorted_tuples r = List.sort compare (List.map Array.to_list (Relation.tuples r))

let check_same ctx r rf =
  Alcotest.(check (list (list int))) ctx (Ref_relation.tuples rf) (sorted_tuples r);
  Alcotest.(check int) (ctx ^ ": cardinal") (Ref_relation.cardinal rf) (int_of_float (Relation.count r))

let random_tuples rs k = List.init k (fun _ -> [ Random.State.int rs 64; Random.State.int rs 64 ])

let setup rs =
  let sp = Space.create ~node_hint:64 () in
  let b = Space.alloc_interleaved sp dom 3 in
  let st = { sp; man = Space.man sp; b; rels = [||]; refs = [||] } in
  let make i =
    let tuples = random_tuples rs initial_tuples in
    let r = Relation.of_tuples sp ~name:(Printf.sprintf "r%d" i) (attrs st) (List.map Array.of_list tuples) in
    let rf = Ref_relation.make [ "x"; "y" ] tuples in
    (r, rf)
  in
  let pairs = Array.init 3 make in
  { st with rels = Array.map fst pairs; refs = Array.map snd pairs }

(* Binary set operations go straight through the specialized kernels on
   the raw relation BDDs (set_bdd keeps the shared attribute layout). *)
let set_op st kernel ref_op k i j =
  Relation.set_bdd st.rels.(k) (kernel st.man (Relation.bdd st.rels.(i)) (Relation.bdd st.rels.(j)));
  st.refs.(k) <- ref_op st.refs.(i) st.refs.(j)

let shift_up st r = Relation.rename r [ ("x", "x", st.b.(1)); ("y", "y", st.b.(2)) ]
let shift_down st r = Relation.rename r [ ("x", "x", st.b.(0)); ("y", "y", st.b.(1)) ]
let swap st r = Relation.rename r [ ("x", "x", st.b.(1)); ("y", "y", st.b.(0)) ]

let step st rs n =
  let k = Random.State.int rs 3 in
  let r = st.rels.(k) and rf = st.refs.(k) in
  let ctx = Printf.sprintf "step %d rel %d" n k in
  (match Random.State.int rs 9 with
  | 0 ->
      let tuples = random_tuples rs (1 + Random.State.int rs 4) in
      List.iter (fun t -> Relation.add_tuple r (Array.of_list t)) tuples;
      st.refs.(k) <- Ref_relation.union rf (Ref_relation.make [ "x"; "y" ] tuples)
  | 1 -> set_op st Bdd.mk_or Ref_relation.union k (Random.State.int rs 3) (Random.State.int rs 3)
  | 2 -> set_op st Bdd.mk_and Ref_relation.inter k (Random.State.int rs 3) (Random.State.int rs 3)
  | 3 -> set_op st Bdd.mk_diff Ref_relation.diff k (Random.State.int rs 3) (Random.State.int rs 3)
  | 4 ->
      (* Monotone instance shift: tuples must be preserved verbatim. *)
      let up = shift_up st r in
      check_same (ctx ^ ": shift up") up rf;
      Relation.dispose up
  | 5 ->
      (* Round-trip through the shifted layout and back. *)
      let up = shift_up st r in
      let back = shift_down st up in
      Alcotest.(check bool) (ctx ^ ": shift round-trip") true (Relation.equal r back);
      Relation.dispose up;
      Relation.dispose back
  | 6 ->
      (* Block swap: non-monotone, takes the generic replace path. *)
      let sw = swap st r in
      check_same (ctx ^ ": swap") sw rf;
      Relation.dispose sw
  | 7 ->
      let a = if Random.State.bool rs then "x" else "y" in
      let v = Random.State.int rs 64 in
      let sel = Relation.select r a v in
      check_same (ctx ^ ": select") sel (Ref_relation.select rf a v);
      Relation.dispose sel
  | _ ->
      let proj = Relation.project r [ "y" ] in
      check_same (ctx ^ ": project") proj (Ref_relation.project rf [ "y" ]);
      Relation.dispose proj);
  if (n + 1) mod gc_every = 0 then Bdd.gc st.man;
  check_same ctx st.rels.(k) st.refs.(k)

let test_differential () =
  let rs = Random.State.make [| seed |] in
  let st = setup rs in
  (* The engine's common rename (instance shift) must hit the
     order-preserving fast path; a swap must not. *)
  Alcotest.(check bool) "shift renaming is monotone" true
    (Bdd.map_is_monotone (Space.renaming st.sp [ (st.b.(0), st.b.(1)); (st.b.(1), st.b.(2)) ]));
  Alcotest.(check bool) "swap renaming is not monotone" false
    (Bdd.map_is_monotone (Space.renaming st.sp [ (st.b.(0), st.b.(1)); (st.b.(1), st.b.(0)) ]));
  for n = 0 to steps - 1 do
    step st rs n
  done;
  for k = 0 to 2 do
    check_same (Printf.sprintf "final rel %d" k) st.rels.(k) st.refs.(k)
  done;
  (* The sequence must actually have stressed the machinery: several
     collections, and growth past the minimum 1024-slot node table. *)
  Alcotest.(check bool) "at least 3 gcs" true (Bdd.gc_count st.man >= 3);
  Alcotest.(check bool) "node table grew" true (Bdd.peak_live_nodes st.man > 1024)

(* Abort-and-resume: a bulk load killed mid-way by an injected
   allocation budget must leave the manager consistent, and redoing the
   same (idempotent) tuple additions without the budget must land on
   exactly the reference set — then the ordinary differential sequence
   keeps passing on the same Space. *)
let test_abort_resume () =
  let rs = Random.State.make [| seed + 1 |] in
  let st = setup rs in
  let tuples = random_tuples rs 3000 in
  let scratch = Relation.of_tuples st.sp ~name:"scratch" (attrs st) [] in
  let add_all () = List.iter (fun t -> Relation.add_tuple scratch (Array.of_list t)) tuples in
  Bdd.set_budget st.man (Some (Budget.make ~max_allocations:(Bdd.allocations st.man + 1) ()));
  let aborted = match add_all () with () -> false | exception Bdd.Limit_exceeded (Budget.Allocations _) -> true in
  Alcotest.(check bool) "budget aborted the bulk load" true aborted;
  (* The partial prefix is garbage-collectable and the table reusable. *)
  Bdd.gc st.man;
  Bdd.set_budget st.man None;
  add_all ();
  let rf = Ref_relation.make [ "x"; "y" ] tuples in
  check_same "resumed load matches reference" scratch rf;
  Bdd.gc st.man;
  check_same "still matches after gc" scratch rf;
  (* The same manager keeps passing the random differential sequence. *)
  for n = 0 to 39 do
    step st rs n
  done

(* Serialize → deserialize round-trips over the same randomized
   churn (which forces GCs every 12 steps and grows the node table):
   reloading into the same manager must hash-cons back to the very
   same handles, and reloading into a fresh manager with the same
   variable layout must reproduce every tuple set and node count. *)
let test_serialize_roundtrip () =
  let rs = Random.State.make [| seed + 2 |] in
  let st = setup rs in
  for n = 0 to 79 do
    step st rs n
  done;
  Alcotest.(check bool) "churn forced gcs" true (Bdd.gc_count st.man >= 3);
  let data = Bdd.serialize st.man (Array.to_list (Array.map Relation.bdd st.rels)) in
  (* Another GC between dump and reload: the dump must not depend on
     live node numbering.  Solver spaces collect by compaction, which
     renumbers every handle — so re-read the relations' (rewritten)
     roots after the collection before comparing. *)
  Bdd.gc st.man;
  let roots = Array.to_list (Array.map Relation.bdd st.rels) in
  let back = Bdd.deserialize st.man data in
  List.iter2
    (fun a b -> Alcotest.(check int) "same-manager handle identity" (a : Bdd.t :> int) (b : Bdd.t :> int))
    roots back;
  (* Fresh manager, same layout. *)
  let sp2 = Space.create ~node_hint:64 () in
  let b2 = Space.alloc_interleaved sp2 dom 3 in
  let man2 = Space.man sp2 in
  let back2 = Bdd.deserialize man2 data in
  List.iteri
    (fun k root2 ->
      let r2 =
        Relation.make sp2 ~name:(Printf.sprintf "r%d'" k)
          [ { Relation.attr_name = "x"; block = b2.(0) }; { attr_name = "y"; block = b2.(1) } ]
      in
      Relation.set_bdd r2 root2;
      check_same (Printf.sprintf "fresh-manager rel %d tuples" k) r2 st.refs.(k);
      Alcotest.(check int)
        (Printf.sprintf "fresh-manager rel %d node count" k)
        (Bdd.node_count st.man (Relation.bdd st.rels.(k)))
        (Bdd.node_count man2 root2))
    back2;
  (* [copy] is serialize piped into deserialize: a third manager holds
     the same canonical dump. *)
  let sp3 = Space.create ~node_hint:64 () in
  ignore (Space.alloc_interleaved sp3 dom 3);
  let copied = Bdd.copy st.man (Space.man sp3) roots in
  Alcotest.(check bool) "copy dumps the same bytes" true (Bdd.serialize (Space.man sp3) copied = data)

(* Corrupt dumps must be rejected with [Bad_input] (never a crash or a
   silently wrong BDD): truncation, bad magic, trailing garbage, and a
   bytewise scramble of the triple section.  Since the WLBDD02 framing
   carries a whole-dump CRC-32, every single-byte scramble must be
   rejected, not just the structurally invalid ones. *)
let expect_bad_input ctx f =
  match f () with
  | _ -> Alcotest.fail (ctx ^ ": expected Bad_input")
  | exception Solver_error.Error (Solver_error.Bad_input _) -> ()

let test_deserialize_rejects_corruption () =
  let rs = Random.State.make [| seed + 3 |] in
  let st = setup rs in
  for n = 0 to 23 do
    step st rs n
  done;
  let data = Bdd.serialize st.man [ Relation.bdd st.rels.(0) ] in
  expect_bad_input "truncated" (fun () ->
      Bdd.deserialize st.man (String.sub data 0 (String.length data - 5)));
  expect_bad_input "empty" (fun () -> Bdd.deserialize st.man "");
  expect_bad_input "bad magic" (fun () ->
      Bdd.deserialize st.man ("X" ^ String.sub data 1 (String.length data - 1)));
  expect_bad_input "trailing garbage" (fun () -> Bdd.deserialize st.man (data ^ "!"));
  (* Scramble one byte of every triple: the frame CRC must catch every
     single perturbation (CRC-32 detects all single-byte errors), on
     top of the structural validation (out-of-order child, non-reduced
     node, bad var) that guards checksummed-but-malformed input. *)
  let header = String.length "WLBDD02\n" + 12 in
  for off = header to min (String.length data - 1) (header + 60) do
    let b = Bytes.of_string data in
    Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0xff));
    match Bdd.deserialize st.man (Bytes.to_string b) with
    | _ -> Alcotest.failf "scramble at byte %d went undetected" off
    | exception Solver_error.Error (Solver_error.Bad_input _) -> ()
  done

let () =
  Alcotest.run "bdd_kernels"
    [
      ("differential", [ Alcotest.test_case "random ops vs Ref_relation across gcs" `Quick test_differential ]);
      ("robustness", [ Alcotest.test_case "abort mid-load, resume idempotently" `Quick test_abort_resume ]);
      ( "serialization",
        [
          Alcotest.test_case "serialize/deserialize round-trip across gcs" `Quick test_serialize_roundtrip;
          Alcotest.test_case "corrupt dumps rejected as Bad_input" `Quick test_deserialize_rejects_corruption;
        ] );
    ]
