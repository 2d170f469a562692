(* BDD manager: differential tests against brute-force truth tables on
   a handful of variables, plus unit tests for the arithmetic
   primitives (range, add_const) and garbage collection. *)

let nvars = 8

let fresh () = Bdd.create ~node_hint:1024 ~nvars ()

(* Truth tables over [n] variables as bitmasks: bit [a] of the table is
   the value of the function on the assignment where variable [i] has
   value [(a lsr i) land 1]. *)
let table_bits n = 1 lsl n

let rec eval m f asg =
  if Bdd.is_const f then Bdd.is_true f
  else if asg (Bdd.var m f) then eval m (Bdd.high m f) asg
  else eval m (Bdd.low m f) asg

let bdd_of_table m n table =
  let acc = ref Bdd.bdd_false in
  for a = 0 to table_bits n - 1 do
    if (table lsr a) land 1 = 1 then begin
      let minterm = ref Bdd.bdd_true in
      for i = 0 to n - 1 do
        let lit = if (a lsr i) land 1 = 1 then Bdd.ithvar m i else Bdd.nithvar m i in
        minterm := Bdd.mk_and m !minterm lit
      done;
      acc := Bdd.mk_or m !acc !minterm
    end
  done;
  !acc

let table_of_bdd m n f =
  let t = ref 0 in
  for a = 0 to table_bits n - 1 do
    if eval m f (fun i -> (a lsr i) land 1 = 1) then t := !t lor (1 lsl a)
  done;
  !t

let n = 4
let full_mask = (1 lsl table_bits n) - 1

let gen_table = QCheck2.Gen.int_bound full_mask
let gen_two = QCheck2.Gen.pair gen_table gen_table

let prop name count gen f = QCheck2.Test.make ~name ~count gen f

let prop_roundtrip =
  prop "table -> bdd -> table" 300 gen_table (fun t ->
      let m = fresh () in
      table_of_bdd m n (bdd_of_table m n t) = t)

let binop_prop name bdd_op table_op =
  prop name 300 gen_two (fun (t1, t2) ->
      let m = fresh () in
      let f = bdd_of_table m n t1 and g = bdd_of_table m n t2 in
      table_of_bdd m n (bdd_op m f g) = table_op t1 t2 land full_mask)

let prop_and = binop_prop "mk_and" Bdd.mk_and ( land )
let prop_or = binop_prop "mk_or" Bdd.mk_or ( lor )
let prop_xor = binop_prop "mk_xor" Bdd.mk_xor ( lxor )
let prop_diff = binop_prop "mk_diff" Bdd.mk_diff (fun a b -> a land lnot b)
let prop_imp = binop_prop "mk_imp" Bdd.mk_imp (fun a b -> lnot a lor b)
let prop_biimp = binop_prop "mk_biimp" Bdd.mk_biimp (fun a b -> lnot (a lxor b))

let prop_not =
  prop "mk_not" 300 gen_table (fun t ->
      let m = fresh () in
      table_of_bdd m n (Bdd.mk_not m (bdd_of_table m n t)) = lnot t land full_mask)

let prop_ite =
  prop "mk_ite" 200
    QCheck2.Gen.(triple gen_table gen_table gen_table)
    (fun (tf, tg, th) ->
      let m = fresh () in
      let f = bdd_of_table m n tf and g = bdd_of_table m n tg and h = bdd_of_table m n th in
      table_of_bdd m n (Bdd.mk_ite m f g h) = ((tf land tg) lor (lnot tf land th)) land full_mask)

(* Reference existential quantification on tables. *)
let table_exist vars t =
  let out = ref 0 in
  for a = 0 to table_bits n - 1 do
    (* a satisfies (exists vars. f) iff some assignment agreeing with a
       outside vars satisfies f. *)
    let rec anysat vs a =
      match vs with
      | [] -> (t lsr a) land 1 = 1
      | v :: rest -> anysat rest (a land lnot (1 lsl v)) || anysat rest (a lor (1 lsl v))
    in
    if anysat vars a then out := !out lor (1 lsl a)
  done;
  !out

let gen_varset = QCheck2.Gen.(list_size (int_range 0 3) (int_range 0 (n - 1)))

let prop_exist =
  prop "exist" 300 (QCheck2.Gen.pair gen_table gen_varset) (fun (t, vars) ->
      let m = fresh () in
      let cube = Bdd.cube_of_vars m vars in
      table_of_bdd m n (Bdd.exist m ~cube (bdd_of_table m n t)) = table_exist vars t)

let prop_forall =
  prop "forall = not exist not" 200 (QCheck2.Gen.pair gen_table gen_varset) (fun (t, vars) ->
      let m = fresh () in
      let cube = Bdd.cube_of_vars m vars in
      let f = bdd_of_table m n t in
      Bdd.forall m ~cube f = Bdd.mk_not m (Bdd.exist m ~cube (Bdd.mk_not m f)))

let prop_relprod =
  prop "relprod = exist (and)" 300 (QCheck2.Gen.pair gen_two gen_varset) (fun ((t1, t2), vars) ->
      let m = fresh () in
      let cube = Bdd.cube_of_vars m vars in
      let f = bdd_of_table m n t1 and g = bdd_of_table m n t2 in
      Bdd.relprod m ~cube f g = Bdd.exist m ~cube (Bdd.mk_and m f g))

(* Replace by an order-changing permutation: reference permutes
   assignment bits. *)
let prop_replace_swap =
  prop "replace swaps variables 0 and 3" 300 gen_table (fun t ->
      let m = fresh () in
      let map = Bdd.make_map m [ (0, 3); (3, 0) ] in
      let expected = ref 0 in
      for a = 0 to table_bits n - 1 do
        if (t lsr a) land 1 = 1 then begin
          let b0 = (a lsr 0) land 1 and b3 = (a lsr 3) land 1 in
          let a' = a land lnot 0b1001 lor (b0 lsl 3) lor (b3 lsl 0) in
          expected := !expected lor (1 lsl a')
        end
      done;
      table_of_bdd m n (Bdd.replace m map (bdd_of_table m n t)) = !expected)

(* A non-decreasing map takes the order-preserving fast path inside
   replace; the semantics must be indistinguishable from the generic
   path: variable i of f becomes variable i+1 of the result. *)
let prop_replace_mono =
  prop "monotone shift replace matches semantics" 300 gen_table (fun t ->
      let m = fresh () in
      let map = Bdd.make_map m [ (0, 1); (1, 2); (2, 3); (3, 4) ] in
      let g = Bdd.replace m map (bdd_of_table m n t) in
      let ok = ref (Bdd.map_is_monotone map) in
      for a = 0 to 31 do
        let expect = (t lsr ((a lsr 1) land 15)) land 1 = 1 in
        if eval m g (fun i -> (a lsr i) land 1 = 1) <> expect then ok := false
      done;
      !ok)

let prop_replace_shift =
  prop "replace to fresh variables preserves satcount" 200 gen_table (fun t ->
      let m = fresh () in
      let map = Bdd.make_map m [ (0, 4); (1, 5); (2, 6); (3, 7) ] in
      let f = bdd_of_table m n t in
      let g = Bdd.replace m map f in
      Bdd.satcount m ~vars:[| 0; 1; 2; 3 |] f = Bdd.satcount m ~vars:[| 4; 5; 6; 7 |] g)

let popcount t =
  let rec go acc t = if t = 0 then acc else go (acc + (t land 1)) (t lsr 1) in
  go 0 t

let prop_satcount =
  prop "satcount = popcount of table" 300 gen_table (fun t ->
      let m = fresh () in
      let f = bdd_of_table m n t in
      int_of_float (Bdd.satcount m ~vars:[| 0; 1; 2; 3 |] f) = popcount t
      && Bignat.to_int_opt (Bdd.satcount_big m ~vars:[| 0; 1; 2; 3 |] f) = Some (popcount t))

let prop_satcount_padded =
  prop "satcount over a wider var set scales by 2^extra" 200 gen_table (fun t ->
      let m = fresh () in
      let f = bdd_of_table m n t in
      int_of_float (Bdd.satcount m ~vars:[| 0; 1; 2; 3; 4; 5 |] f) = popcount t * 4)

let prop_iter_sat =
  prop "iter_sat enumerates exactly the table's minterms" 200 gen_table (fun t ->
      let m = fresh () in
      let f = bdd_of_table m n t in
      let seen = ref [] in
      Bdd.iter_sat m ~vars:[| 0; 1; 2; 3 |]
        (fun asg ->
          let a = ref 0 in
          Array.iteri (fun i b -> if b then a := !a lor (1 lsl i)) asg;
          seen := !a :: !seen)
        f;
      let expected = List.filter (fun a -> (t lsr a) land 1 = 1) (List.init (table_bits n) (fun a -> a)) in
      List.sort compare !seen = expected)

let prop_support =
  prop "support of x_i and x_j" 100
    QCheck2.Gen.(pair (int_range 0 7) (int_range 0 7))
    (fun (i, j) ->
      let m = fresh () in
      let f = Bdd.mk_and m (Bdd.ithvar m i) (Bdd.ithvar m j) in
      Bdd.support m f = List.sort_uniq compare [ i; j ])

(* --- Arithmetic primitives --- *)

let bits4 = [| 0; 1; 2; 3 |]

let value_set m f =
  let vals = ref [] in
  Bdd.iter_sat m ~vars:bits4
    (fun asg ->
      let v = ref 0 in
      Array.iteri (fun i b -> if b then v := !v lor (1 lsl i)) asg;
      vals := !v :: !vals)
    f;
  List.sort compare !vals

let prop_range =
  prop "range lo..hi contains exactly [lo, hi]" 200
    QCheck2.Gen.(pair (int_range 0 15) (int_range 0 15))
    (fun (a, b) ->
      let lo = min a b and hi = max a b in
      let m = fresh () in
      value_set m (Bdd.range m ~bits:bits4 ~lo ~hi) = List.init (hi - lo + 1) (fun i -> lo + i))

let prop_range_empty =
  prop "range with lo > hi is empty" 50
    QCheck2.Gen.(pair (int_range 1 15) (int_range 0 15))
    (fun (lo, extra) ->
      let m = fresh () in
      ignore extra;
      Bdd.range m ~bits:bits4 ~lo ~hi:(lo - 1) = Bdd.bdd_false)

let prop_const_value =
  prop "const_value is a singleton range" 50 (QCheck2.Gen.int_range 0 15) (fun v ->
      let m = fresh () in
      Bdd.const_value m ~bits:bits4 v = Bdd.range m ~bits:bits4 ~lo:v ~hi:v)

let prop_add_const =
  prop "add_const relates src to src+delta without overflow" 200
    QCheck2.Gen.(int_range 0 15)
    (fun delta ->
      let m = fresh () in
      let src = [| 0; 1; 2; 3 |] and dst = [| 4; 5; 6; 7 |] in
      let rel = Bdd.add_const m ~src ~dst ~delta in
      let ok = ref true in
      for s = 0 to 15 do
        let expect = s + delta <= 15 in
        let pair_bdd =
          Bdd.mk_and m (Bdd.const_value m ~bits:src s)
            (if expect then Bdd.const_value m ~bits:dst (s + delta) else Bdd.bdd_true)
        in
        let hit = Bdd.mk_and m rel pair_bdd <> Bdd.bdd_false in
        if hit <> expect then ok := false
      done;
      !ok)

let prop_equal_blocks =
  prop "equal_blocks = add_const 0" 20 QCheck2.Gen.unit (fun () ->
      let m = fresh () in
      Bdd.equal_blocks m ~src:[| 0; 1; 2; 3 |] ~dst:[| 4; 5; 6; 7 |]
      = Bdd.add_const m ~src:[| 0; 1; 2; 3 |] ~dst:[| 4; 5; 6; 7 |] ~delta:0)

(* --- Unit tests --- *)

let test_terminals () =
  Alcotest.(check bool) "false const" true (Bdd.is_false Bdd.bdd_false);
  Alcotest.(check bool) "true const" true (Bdd.is_true Bdd.bdd_true);
  let m = fresh () in
  Alcotest.(check bool) "x and not x" true (Bdd.mk_and m (Bdd.ithvar m 0) (Bdd.nithvar m 0) = Bdd.bdd_false);
  Alcotest.(check bool) "x or not x" true (Bdd.mk_or m (Bdd.ithvar m 0) (Bdd.nithvar m 0) = Bdd.bdd_true)

let test_hash_consing () =
  let m = fresh () in
  let f1 = Bdd.mk_and m (Bdd.ithvar m 0) (Bdd.ithvar m 1) in
  let f2 = Bdd.mk_and m (Bdd.ithvar m 1) (Bdd.ithvar m 0) in
  Alcotest.(check bool) "canonical" true (f1 = f2);
  Alcotest.(check int) "node_count of x0&x1" 2 (Bdd.node_count m f1);
  Alcotest.(check int) "node_count of var" 1 (Bdd.node_count m (Bdd.ithvar m 3))

let test_gc_preserves_roots () =
  let m = fresh () in
  let keep = ref (bdd_of_table m n 0b1011_0110_0101_1001) in
  Bdd.add_root m keep;
  (* Make garbage. *)
  for i = 0 to 50 do
    ignore (bdd_of_table m n (i * 977 land full_mask))
  done;
  let live_before = Bdd.live_nodes m in
  let table_before = table_of_bdd m n !keep in
  Bdd.gc m;
  Alcotest.(check bool) "gc frees something" true (Bdd.live_nodes m < live_before);
  Alcotest.(check int) "rooted value unchanged" table_before (table_of_bdd m n !keep);
  (* New allocations after gc reuse slots and still compute correctly. *)
  let t2 = 0b0110_1001_1100_0011 in
  Alcotest.(check int) "post-gc allocation" t2 (table_of_bdd m n (bdd_of_table m n t2));
  Alcotest.(check int) "gc counted" 1 (Bdd.gc_count m)

let test_gc_root_fn () =
  let m = fresh () in
  let stash = ref Bdd.bdd_true in
  Bdd.add_root_fn m (fun () -> [ !stash ]);
  Bdd.on_remap m (fun mapf -> stash := mapf !stash);
  stash := bdd_of_table m n 0xABCD;
  Bdd.gc m;
  Alcotest.(check int) "root_fn keeps value" 0xABCD (table_of_bdd m n !stash)

let test_table_growth () =
  (* Force many allocations through a tiny initial table. *)
  let m = Bdd.create ~node_hint:64 ~nvars:20 () in
  let acc = ref Bdd.bdd_false in
  for i = 0 to 19 do
    acc := Bdd.mk_or m !acc (Bdd.mk_and m (Bdd.ithvar m i) (Bdd.ithvar m ((i + 7) mod 20)))
  done;
  Alcotest.(check bool) "survives growth" true (Bdd.node_count m !acc > 20);
  Alcotest.(check bool) "peak tracked" true (Bdd.peak_live_nodes m >= Bdd.live_nodes m)

let test_to_dot () =
  let m = fresh () in
  let f = Bdd.mk_and m (Bdd.ithvar m 0) (Bdd.nithvar m 2) in
  let dot = Bdd.to_dot m f in
  Alcotest.(check bool) "digraph" true (String.length dot > 0 && String.sub dot 0 7 = "digraph");
  Alcotest.(check bool) "labels present" true
    (let contains s sub =
       let n = String.length s and m = String.length sub in
       let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
       go 0
     in
     contains dot "x0" && contains dot "x2" && contains dot "style=dashed");
  Alcotest.(check bool) "terminal-only dot" true (String.length (Bdd.to_dot m Bdd.bdd_true) > 0)

let test_peak_and_cache_stats () =
  let m = fresh () in
  ignore (bdd_of_table m n 0xBEEF);
  let peak = Bdd.peak_live_nodes m in
  Alcotest.(check bool) "peak >= live" true (peak >= Bdd.live_nodes m);
  Bdd.reset_peak m;
  Alcotest.(check int) "reset to live" (Bdd.live_nodes m) (Bdd.peak_live_nodes m);
  (* Repeating an operation must hit the cache. *)
  let f = bdd_of_table m n 0xAAAA and g = bdd_of_table m n 0x0F0F in
  ignore (Bdd.mk_and m f g);
  let hits_before, _ = Bdd.cache_stats m in
  ignore (Bdd.mk_and m f g);
  let hits_after, _ = Bdd.cache_stats m in
  Alcotest.(check bool) "cache hit recorded" true (hits_after > hits_before)

let test_map_monotone () =
  let m = fresh () in
  Alcotest.(check bool) "shift by one is monotone" true
    (Bdd.map_is_monotone (Bdd.make_map m [ (0, 1); (1, 2); (2, 3); (3, 4) ]));
  Alcotest.(check bool) "swap is not monotone" false
    (Bdd.map_is_monotone (Bdd.make_map m [ (0, 3); (3, 0) ]));
  (* Moving a whole block past unmapped variables is non-monotone as a
     total map (7 -> 4 at the seam) even though it is increasing on the
     mapped variables alone. *)
  Alcotest.(check bool) "block move is not monotone" false
    (Bdd.map_is_monotone (Bdd.make_map m [ (0, 4); (1, 5); (2, 6); (3, 7) ]))

let test_cache_survives_gc () =
  let m = fresh () in
  let f = ref (bdd_of_table m n 0xAAAA) and g = ref (bdd_of_table m n 0x0FF0) in
  Bdd.add_root m f;
  Bdd.add_root m g;
  let keep = ref (Bdd.mk_and m !f !g) in
  Bdd.add_root m keep;
  for i = 0 to 30 do
    ignore (bdd_of_table m n (i * 41 land full_mask))
  done;
  (* Refresh the cache entry (garbage above may have evicted the slot),
     then collect: operands and result are rooted, so the sweep must
     keep the entry and the next lookup must hit. *)
  ignore (Bdd.mk_and m !f !g);
  Bdd.gc m;
  let hits_before = fst (Bdd.cache_stats m) in
  let r2 = Bdd.mk_and m !f !g in
  Alcotest.(check bool) "same node after gc" true (r2 = !keep);
  Alcotest.(check bool) "cache hit after gc" true (fst (Bdd.cache_stats m) > hits_before);
  let per = Bdd.cache_stats_by_class m in
  let h, ms = List.fold_left (fun (h, ms) (_, h', m') -> (h + h', ms + m')) (0, 0) per in
  Alcotest.(check bool) "per-class stats sum to totals" true ((h, ms) = Bdd.cache_stats m);
  Alcotest.(check bool) "and class present" true (List.exists (fun (nm, _, _) -> nm = "and") per)

let test_extend_vars () =
  let m = Bdd.create ~nvars:2 () in
  Alcotest.check_raises "out of range" (Invalid_argument "Bdd.ithvar") (fun () -> ignore (Bdd.ithvar m 5));
  Bdd.extend_vars m 6;
  Alcotest.(check bool) "after extend" true (Bdd.ithvar m 5 <> Bdd.bdd_false)

let () =
  Alcotest.run "bdd"
    [
      ( "unit",
        [
          Alcotest.test_case "terminals" `Quick test_terminals;
          Alcotest.test_case "hash consing" `Quick test_hash_consing;
          Alcotest.test_case "gc preserves roots" `Quick test_gc_preserves_roots;
          Alcotest.test_case "gc root functions" `Quick test_gc_root_fn;
          Alcotest.test_case "node table growth" `Quick test_table_growth;
          Alcotest.test_case "extend_vars" `Quick test_extend_vars;
          Alcotest.test_case "map monotonicity" `Quick test_map_monotone;
          Alcotest.test_case "cache survives gc" `Quick test_cache_survives_gc;
          Alcotest.test_case "to_dot" `Quick test_to_dot;
          Alcotest.test_case "peak and cache stats" `Quick test_peak_and_cache_stats;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_roundtrip;
            prop_and;
            prop_or;
            prop_xor;
            prop_diff;
            prop_imp;
            prop_biimp;
            prop_not;
            prop_ite;
            prop_exist;
            prop_forall;
            prop_relprod;
            prop_replace_swap;
            prop_replace_mono;
            prop_replace_shift;
            prop_satcount;
            prop_satcount_padded;
            prop_iter_sat;
            prop_support;
            prop_range;
            prop_range_empty;
            prop_const_value;
            prop_add_const;
            prop_equal_blocks;
          ] );
    ]
