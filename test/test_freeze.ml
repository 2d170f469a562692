(* Differential unit suite for [Bdd.freeze] / [Bdd.overlay]: the frozen
   snapshot plus the per-domain overlays that back the parallel
   warm-query daemon.

   Ground truth is the plain manager the snapshot was taken from: the
   same op sequence runs on it and on overlays, and results are
   compared as explicit satisfying-assignment sets (14 variables, so
   full enumeration is cheap).  Covered:

   - snapshot handles evaluate identically before and after the plain
     manager is mutated and collected (snapshot isolation);
   - a long random op sequence (and/or/diff/not/exist/relprod) on an
     overlay matches the plain manager across [reset]s, replayed on a
     fresh overlay to pin determinism; cache entries over snapshot
     handles survive a reset, and [gc]/[freeze] refuse an overlay;
   - 4 overlays of one snapshot run the same op sequence concurrently
     (one domain each) and agree bit-for-bit;
   - satcount / const_value differentials, and the per-overlay budget
     kill + recovery. *)

let nvars = 14
let all_vars = Array.init nvars Fun.id

(* Semantic fingerprint: sorted satisfying assignments as bitmasks. *)
let mask_of bits =
  let m = ref 0 in
  Array.iteri (fun i b -> if b then m := !m lor (1 lsl i)) bits;
  !m

let sats man f =
  let acc = ref [] in
  Bdd.iter_sat man ~vars:all_vars (fun bits -> acc := mask_of bits :: !acc) f;
  List.sort compare !acc

(* A pool of rooted BDDs over a fresh manager: all literals plus
   [extra] random combinations.  Collection renumbers handles and
   rewrites the rooted list in place, so callers re-read it after every
   [gc]/[freeze]. *)
let build_pool rng man extra =
  let pool = ref [] in
  let add f = pool := f :: !pool in
  for i = 0 to nvars - 1 do
    add (Bdd.ithvar man i);
    add (Bdd.nithvar man i)
  done;
  for _ = 1 to extra do
    let pick () = List.nth !pool (Random.State.int rng (List.length !pool)) in
    add
      (match Random.State.int rng 5 with
      | 0 -> Bdd.mk_and man (pick ()) (pick ())
      | 1 -> Bdd.mk_or man (pick ()) (pick ())
      | 2 -> Bdd.mk_diff man (pick ()) (pick ())
      | 3 -> Bdd.mk_xor man (pick ()) (pick ())
      | _ -> Bdd.mk_not man (pick ()))
  done;
  Bdd.add_root_list man pool;
  pool

let setup ?(extra = 60) seed =
  let rng = Random.State.make [| seed |] in
  let man = Bdd.create ~node_hint:256 ~nvars () in
  let pool = build_pool rng man extra in
  (rng, man, pool)

let read pool = Array.of_list !pool

(* --- snapshot isolation --------------------------------------------- *)

let test_frozen_matches_live () =
  let rng, man, rooted = setup 0xF7EE2E in
  let pool = read rooted in
  (* Unrooted garbage, so the freeze-time GC has something to collect. *)
  for _ = 1 to 50 do
    ignore (Bdd.mk_and man pool.(Random.State.int rng (Array.length pool)) (Bdd.ithvar man 0))
  done;
  let reference = Array.map (sats man) pool in
  let fz = Bdd.freeze man in
  let pool = read rooted in
  Alcotest.(check bool) "frozen live nodes positive" true (Bdd.frozen_live_nodes fz > 0);
  let ov = Bdd.overlay fz in
  Array.iteri
    (fun i f -> Alcotest.(check (list int)) (Printf.sprintf "pool %d via overlay" i) reference.(i) (sats ov f))
    pool;
  (* Mutate and collect the plain manager: the snapshot must not move. *)
  for _ = 1 to 200 do
    ignore
      (Bdd.mk_or man
         pool.(Random.State.int rng (Array.length pool))
         (Bdd.mk_not man pool.(Random.State.int rng (Array.length pool))))
  done;
  Bdd.gc man;
  Array.iteri
    (fun i f ->
      Alcotest.(check (list int))
        (Printf.sprintf "pool %d via overlay after churn+gc" i)
        reference.(i) (sats ov f))
    pool;
  (* And the plain handles still answer the same too (roots held). *)
  Array.iteri
    (fun i f -> Alcotest.(check (list int)) (Printf.sprintf "pool %d live" i) reference.(i) (sats man f))
    (read rooted)

(* --- random op differential, plain manager as oracle ----------------- *)

(* One op described abstractly so the same sequence can run on the
   plain manager and on overlays in different domains. *)
type op =
  | Op2 of int * int * int (* kernel 0=and 1=or 2=diff, operand indices *)
  | Op_not of int
  | Op_exist of int * int list (* operand, cube vars *)
  | Op_relprod of int * int * int list

let random_ops rng pool_len count =
  (* Operand indices may also point at results of earlier ops:
     index < pool_len + k for the k-th op. *)
  List.init count (fun k ->
      let pick () = Random.State.int rng (pool_len + k) in
      let cube () =
        List.sort_uniq compare (List.init (1 + Random.State.int rng 3) (fun _ -> Random.State.int rng nvars))
      in
      match Random.State.int rng 6 with
      | 0 -> Op2 (0, pick (), pick ())
      | 1 -> Op2 (1, pick (), pick ())
      | 2 -> Op2 (2, pick (), pick ())
      | 3 -> Op_not (pick ())
      | 4 -> Op_exist (pick (), cube ())
      | _ -> Op_relprod (pick (), pick (), cube ()))

(* Run [ops] in order on [man]; each result's satisfying set. *)
let run_ops man pool ops =
  let vals = ref (Array.to_list pool) in
  let get i = List.nth !vals i in
  List.map
    (fun op ->
      let f =
        match op with
        | Op2 (0, i, j) -> Bdd.mk_and man (get i) (get j)
        | Op2 (1, i, j) -> Bdd.mk_or man (get i) (get j)
        | Op2 (_, i, j) -> Bdd.mk_diff man (get i) (get j)
        | Op_not i -> Bdd.mk_not man (get i)
        | Op_exist (i, vs) -> Bdd.exist man ~cube:(Bdd.cube_of_vars man vs) (get i)
        | Op_relprod (i, j, vs) -> Bdd.relprod man ~cube:(Bdd.cube_of_vars man vs) (get i) (get j)
      in
      vals := !vals @ [ f ];
      sats man f)
    ops

let test_overlay_differential () =
  let rng, man, rooted = setup 0xD1FF in
  let conj = ref (Bdd.mk_and man (Bdd.ithvar man 0) (Bdd.ithvar man 1)) in
  Bdd.add_root man conj;
  let fz = Bdd.freeze man in
  let pool = read rooted in
  (* The literals are pool members, so they survived under new numbers. *)
  let x0 = Bdd.ithvar man 0 and x1 = Bdd.ithvar man 1 in
  let ov = Bdd.overlay fz in
  (* Three rounds against the plain oracle, resetting the overlay
     between rounds: every round restarts from snapshot handles only,
     so reset correctness (dropped nodes, swept cache) is on the line
     each time. *)
  for round = 1 to 3 do
    let ops = random_ops rng (Array.length pool) 70 in
    let expect = run_ops man pool ops in
    let got = run_ops ov pool ops in
    List.iteri
      (fun i (l, c) -> Alcotest.(check (list int)) (Printf.sprintf "round %d op %d" round i) l c)
      (List.combine expect got);
    Alcotest.(check bool)
      (Printf.sprintf "round %d replay on fresh overlay identical" round)
      true
      (run_ops (Bdd.overlay fz) pool ops = got);
    Bdd.reset ov
  done;
  Alcotest.(check int) "reset leaves no own nodes" 0 (Bdd.live_nodes ov);
  (* A query over snapshot handles with a snapshot result is cached for
     good: after a reset, repeating it is one hit and no miss. *)
  Alcotest.(check int) "conjunction found in the snapshot" (!conj :> int) (Bdd.mk_and ov x0 x1 :> int);
  Bdd.reset ov;
  let h0, m0 = Bdd.cache_stats ov in
  ignore (Bdd.mk_and ov x0 x1);
  let h1, m1 = Bdd.cache_stats ov in
  Alcotest.(check (pair int int)) "repeat after reset hits the cache" (h0 + 1, m0) (h1, m1);
  Alcotest.check_raises "gc refuses an overlay" (Invalid_argument "Bdd.gc: not on an overlay") (fun () -> Bdd.gc ov);
  Alcotest.check_raises "freeze refuses an overlay" (Invalid_argument "Bdd.freeze: not on an overlay") (fun () ->
      ignore (Bdd.freeze ov))

(* --- concurrent overlays ---------------------------------------------- *)

let test_concurrent_overlays () =
  let rng, man, rooted = setup 0xC0C0 in
  let fz = Bdd.freeze man in
  let pool = read rooted in
  let ops = random_ops rng (Array.length pool) 60 in
  let reference = run_ops man pool ops in
  let domains = List.init 4 (fun _ -> Stdlib.Domain.spawn (fun () -> run_ops (Bdd.overlay fz) pool ops)) in
  List.iteri
    (fun d transcript ->
      Alcotest.(check bool) (Printf.sprintf "overlay %d agrees with plain oracle" d) true (transcript = reference))
    (List.map Stdlib.Domain.join domains)

(* --- counting, constants, budget ------------------------------------- *)

let test_counting_and_budget () =
  let _, man, rooted = setup ~extra:40 0x5A7C0 in
  let ov = Bdd.overlay (Bdd.freeze man) in
  let pool = read rooted in
  Array.iteri
    (fun i f ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "satcount pool %d" i)
        (Bdd.satcount man ~vars:all_vars f)
        (Bdd.satcount ov ~vars:all_vars f))
    pool;
  let bits = Array.init 6 (fun i -> 2 * i) in
  for v = 0 to 63 do
    Alcotest.(check (list int))
      (Printf.sprintf "const_value %d" v)
      (sats man (Bdd.const_value man ~bits v))
      (sats ov (Bdd.const_value ov ~bits v))
  done;
  (* Budget: a cap resolved against the overlay's counters kills a
     fresh build at the amortized check site; after reset + uncapping
     the same build succeeds.  A build logs more cache stores than the
     reset log holds, so the next reset sweeps the whole cache, and a
     different build afterwards must not see the old one's entries. *)
  let build ?(mult = 2654435761) m =
    (* ~3k distinct mixed 14-bit points: the growing union keeps
       allocating, crossing the budget-check interval several times. *)
    let evens = Array.init 7 (fun k -> 2 * k) and odds = Array.init 7 (fun k -> (2 * k) + 1) in
    let acc = ref Bdd.bdd_false in
    for i = 0 to 2999 do
      let v = i * mult land 16383 in
      let pair = Bdd.mk_and m (Bdd.const_value m ~bits:evens (v land 127)) (Bdd.const_value m ~bits:odds (v lsr 7)) in
      acc := Bdd.mk_or m !acc pair
    done;
    !acc
  in
  Bdd.set_budget ov (Some (Budget.make ~max_allocations:(Bdd.allocations ov + 8) ()));
  let killed = match build ov with _ -> false | exception Bdd.Limit_exceeded _ -> true in
  Alcotest.(check bool) "tight overlay budget kills the build" true killed;
  Bdd.set_budget ov None;
  Bdd.reset ov;
  Alcotest.(check (float 0.0)) "recovered build matches the plain one"
    (Bdd.satcount man ~vars:all_vars (build man))
    (Bdd.satcount ov ~vars:all_vars (build ov));
  Bdd.reset ov;
  let other = build ~mult:40503 in
  Alcotest.(check (list int)) "a different build after an overflowing reset" (sats man (other man)) (sats ov (other ov))

let () =
  Alcotest.run "freeze"
    [
      ( "frozen",
        [ Alcotest.test_case "frozen eval matches live, isolated from churn" `Quick test_frozen_matches_live ] );
      ( "ctx",
        [
          Alcotest.test_case "random ops vs live kernels across resets" `Quick test_overlay_differential;
          Alcotest.test_case "satcount/const_value differential + budget kill" `Quick test_counting_and_budget;
        ] );
      ( "concurrent",
        [ Alcotest.test_case "4 ctxs, 1 frozen space, identical answers" `Quick test_concurrent_overlays ] );
    ]
