(* The paper's analyses end-to-end: Algorithm 4 numbering on the
   paper's own Example 1, precision ordering CHA ⊇ on-the-fly ⊇
   context-sensitive on a classic container program, differential
   checks of the BDD pipeline against the naive evaluator, thread
   escape analysis, and the §5 queries. *)

module Ir = Jir.Ir
module Jparser = Jir.Jparser
module Factgen = Jir.Factgen
module Analyses = Pta.Analyses
module Context = Pta.Context
module Callgraph = Pta.Callgraph
module Programs = Pta.Programs
module Queries = Pta.Queries

(* --- Algorithm 4 on the paper's Example 1 --- *)

(* Call graph of Figure 1: M2 and M3 form a cycle; edges are created
   in the paper's a..i order. *)
let example1 () =
  let p = Ir.create () in
  let g = Ir.add_class p ~name:"G" ~super:(Ir.object_class p) in
  let mk name = Ir.add_method p ~name ~owner:g ~static:true ~formals:[] ~ret:None in
  let m1 = mk "m1" and m2 = mk "m2" and m3 = mk "m3" in
  let m4 = mk "m4" and m5 = mk "m5" and m6 = mk "m6" in
  let call src dst = ignore (Ir.emit_invoke_static p src ~target:dst ~args:[]) in
  call m1 m2 (* a *);
  call m1 m3 (* b *);
  call m2 m3 (* c *);
  call m3 m2 (* d *);
  call m2 m4 (* e *);
  call m3 m4 (* f *);
  call m3 m5 (* g *);
  call m4 m6 (* h *);
  call m5 m6 (* i *);
  Ir.add_entry p m1;
  (p, [| m1; m2; m3; m4; m5; m6 |])

let test_example1_counts () =
  let p, m = example1 () in
  let edges = Callgraph.cha_edges p in
  Alcotest.(check int) "nine invocation edges" 9 (List.length edges);
  let ctx = Context.number p ~edges ~roots:[ m.(0) ] in
  let counts = Array.map (Context.method_contexts ctx) m in
  Alcotest.(check (array int)) "Example 2's clone counts" [| 1; 2; 2; 4; 2; 6 |] counts;
  Alcotest.(check bool) "M2 and M3 share a component" true
    (Context.scc_of_method ctx m.(1) = Context.scc_of_method ctx m.(2));
  Alcotest.(check string) "17 clones in total" "17" (Bignat.to_string (Context.total_paths ctx));
  Alcotest.(check string) "M6 has the most contexts" "6" (Bignat.to_string (Context.max_contexts ctx));
  Alcotest.(check int) "csize covers 1..6" 7 (Context.csize ctx);
  Alcotest.(check bool) "no merging" false (Context.merged ctx);
  (* Tuple-level: 1+1+2+2+2+2+2+4+2 = 18 context-sensitive edges. *)
  Alcotest.(check int) "IEC tuples" 18 (List.length (Context.iec_tuples ctx));
  Alcotest.(check int) "mC tuples" 17 (List.length (Context.mc_tuples ctx))

let test_example1_bdds_match_tuples () =
  let p, m = example1 () in
  let edges = Callgraph.cha_edges p in
  let ctx = Context.number p ~edges ~roots:[ m.(0) ] in
  let sp = Space.create () in
  let dom_c = Domain.make ~name:"C" ~size:(Context.csize ctx) () in
  let dom_i = Domain.make ~name:"I" ~size:(Ir.num_invokes p) () in
  let dom_m = Domain.make ~name:"M" ~size:(Ir.num_methods p) () in
  let cblocks = Space.alloc_interleaved sp dom_c 2 in
  let iblk = Space.alloc sp dom_i in
  let mblk = Space.alloc sp dom_m in
  let iec =
    Context.iec_bdd ctx sp ~caller:cblocks.(0) ~invoke:iblk ~callee:cblocks.(1) ~target:mblk
  in
  let rel =
    Relation.make sp ~name:"IEC"
      [
        { Relation.attr_name = "c1"; block = cblocks.(0) };
        { Relation.attr_name = "i"; block = iblk };
        { Relation.attr_name = "c2"; block = cblocks.(1) };
        { Relation.attr_name = "m"; block = mblk };
      ]
  in
  Relation.set_bdd rel iec;
  let from_bdd =
    List.sort compare (List.map (fun t -> (t.(0), t.(1), t.(2), t.(3))) (Relation.tuples rel))
  in
  Alcotest.(check bool) "iec_bdd enumerates exactly iec_tuples" true (from_bdd = Context.iec_tuples ctx);
  let mc = Context.mc_bdd ctx sp ~context:cblocks.(0) ~target:mblk in
  let mrel =
    Relation.make sp ~name:"mC"
      [ { Relation.attr_name = "c"; block = cblocks.(0) }; { Relation.attr_name = "m"; block = mblk } ]
  in
  Relation.set_bdd mrel mc;
  let mc_from_bdd = List.sort compare (List.map (fun t -> (t.(0), t.(1))) (Relation.tuples mrel)) in
  Alcotest.(check bool) "mc_bdd enumerates exactly mc_tuples" true (mc_from_bdd = Context.mc_tuples ctx)

let test_context_cap_merging () =
  (* A diamond ladder: counts double at every level; with max_bits 3
     (cap 7) the deep levels merge into the top context. *)
  let p = Ir.create () in
  let g = Ir.add_class p ~name:"G" ~super:(Ir.object_class p) in
  let mk name = Ir.add_method p ~name ~owner:g ~static:true ~formals:[] ~ret:None in
  let depth = 6 in
  let ms = Array.init depth (fun i -> mk (Printf.sprintf "m%d" i)) in
  for i = 0 to depth - 2 do
    ignore (Ir.emit_invoke_static p ms.(i) ~target:ms.(i + 1) ~args:[]);
    ignore (Ir.emit_invoke_static p ms.(i) ~target:ms.(i + 1) ~args:[])
  done;
  Ir.add_entry p ms.(0);
  let edges = Callgraph.cha_edges p in
  let ctx = Context.number ~max_bits:3 p ~edges ~roots:[ ms.(0) ] in
  Alcotest.(check string) "exact count is 2^5" "32" (Bignat.to_string (Context.method_contexts_exact ctx ms.(depth - 1)));
  Alcotest.(check int) "clamped at 7" 7 (Context.method_contexts ctx ms.(depth - 1));
  Alcotest.(check bool) "merged flagged" true (Context.merged ctx);
  (* The tuple view respects the cap. *)
  List.iter
    (fun (c1, _, c2, _) ->
      Alcotest.(check bool) "contexts within cap" true (c1 <= 7 && c2 <= 7))
    (Context.iec_tuples ctx)

(* --- End-to-end precision: the container/getter program --- *)

let container_src =
  {|
class A extends Object {
  field f : Object
  method set(v : Object) : void {
    this.f = v
  }
  method get() : Object {
    var r : Object
    r = this.f
    return r
  }
}
class B extends A {
  method get() : Object {
    var x : Object
    x = new Object() @ "BNEW"
    return x
  }
}
class Main extends Object {
  static method main() : void {
    var a1 : A
    var a2 : A
    var o1 : Object
    var o2 : Object
    var r1 : Object
    var r2 : Object
    a1 = new A() @ "A1"
    a2 = new A() @ "A2"
    a1.set(o1)
    a2.set(o2)
    o1 = new Object() @ "O1"
    o2 = new Object() @ "O2"
    a1.set(o1)
    a2.set(o2)
    r1 = a1.get()
    r2 = a2.get()
  }
}
entry Main.main
|}

let fg_of src = Factgen.extract (Jparser.parse src)

let var_named fg name =
  let names = Option.get (Factgen.element_names fg "V") in
  let found = ref (-1) in
  Array.iteri (fun i n -> if n = name then found := i) names;
  if !found < 0 then Alcotest.failf "no variable named %s" name;
  !found

let heap_names fg hs =
  let names = Option.get (Factgen.element_names fg "H") in
  List.sort compare (List.map (fun h -> names.(h)) hs)

(* Heap targets of a variable in a points-to output; [var_pos]/[heap_pos]
   select the relevant attributes. *)
let targets result rel ~var_pos ~heap_pos v =
  let hs = ref [] in
  List.iter (fun t -> if t.(var_pos) = v then hs := t.(heap_pos) :: !hs) (Analyses.tuples result rel);
  List.sort_uniq compare !hs

let test_precision_ordering () =
  let fg = fg_of container_src in
  let r1 = var_named fg "Main.main.r1" in
  (* CHA-based (Algorithm 2): dispatch of a1.get() sees both A.get and
     B.get, so r1 may point to O1, O2 and BNEW. *)
  let cha = Analyses.run_basic ~algo:Analyses.Algo2 fg in
  Alcotest.(check (list string)) "CHA" [ "BNEW"; "O1"; "O2" ] (heap_names fg (targets cha "vP" ~var_pos:0 ~heap_pos:1 r1));
  (* On-the-fly call graph (Algorithm 3): a1 only points to A objects,
     so B.get is pruned; O1/O2 still merge context-insensitively. *)
  let otf = Analyses.run_basic ~algo:Analyses.Algo3 fg in
  Alcotest.(check (list string)) "on-the-fly" [ "O1"; "O2" ] (heap_names fg (targets otf "vP" ~var_pos:0 ~heap_pos:1 r1));
  (* Context-sensitive (Algorithm 5): the two set/get chains are
     separate clones; r1 gets exactly O1. *)
  let ctx = Analyses.make_context fg ~ie:(Analyses.ie_tuples otf) in
  let cs = Analyses.run_cs fg ctx in
  Alcotest.(check (list string)) "context-sensitive" [ "O1" ] (heap_names fg (targets cs "vPC" ~var_pos:1 ~heap_pos:2 r1));
  (* Projection of CS results refines the on-the-fly CI results. *)
  let vp_ci = List.sort_uniq compare (List.map (fun t -> (t.(0), t.(1))) (Analyses.tuples otf "vP")) in
  let vp_cs = List.sort_uniq compare (List.map (fun t -> (t.(1), t.(2))) (Analyses.tuples cs "vPC")) in
  Alcotest.(check bool) "vPC projected is a subset of vP" true
    (List.for_all (fun pair -> List.mem pair vp_ci) vp_cs)

(* --- Differential: engine vs naive evaluator on full programs --- *)

let naive_inputs fg = List.map (fun (n, ts) -> (n, ts)) (Programs.input_relations fg)

let sorted_tuples_naive r name = Naive_eval.tuples r name
let sorted_tuples_engine result name = List.sort compare (List.map Array.to_list (Analyses.tuples result name))

let check_against_naive fg text result outputs =
  let naive = Naive_eval.solve (Parser.parse text) ~inputs:(naive_inputs fg) in
  List.iter
    (fun out ->
      Alcotest.(check (list (list int)))
        (Printf.sprintf "engine = naive on %s" out)
        (sorted_tuples_naive naive out) (sorted_tuples_engine result out))
    outputs

let test_algo2_vs_naive () =
  let fg = fg_of container_src in
  let result = Analyses.run_basic ~algo:Analyses.Algo2 fg in
  check_against_naive fg result.Analyses.program_text result [ "vP"; "hP" ]

let test_algo3_vs_naive () =
  let fg = fg_of container_src in
  let result = Analyses.run_basic ~algo:Analyses.Algo3 fg in
  check_against_naive fg result.Analyses.program_text result [ "vP"; "hP"; "IE" ]

let test_algo5_vs_naive () =
  let fg = fg_of container_src in
  let otf = Analyses.run_basic ~algo:Analyses.Algo3 fg in
  let ctx = Analyses.make_context fg ~ie:(Analyses.ie_tuples otf) in
  let cs = Analyses.run_cs fg ctx in
  (* The naive evaluator needs IEC and mC as explicit tuples. *)
  let naive =
    Naive_eval.solve
      (Parser.parse cs.Analyses.program_text)
      ~inputs:
        (naive_inputs fg
        @ [
            ("IEC", List.map (fun (a, b, c, d) -> [ a; b; c; d ]) (Context.iec_tuples ctx));
            ("mC", List.map (fun (a, b) -> [ a; b ]) (Context.mc_tuples ctx));
          ])
  in
  List.iter
    (fun out ->
      Alcotest.(check (list (list int)))
        (Printf.sprintf "engine = naive on %s" out)
        (sorted_tuples_naive naive out) (sorted_tuples_engine cs out))
    [ "vPC"; "hP" ]

let test_synth_algo5_vs_naive () =
  (* The full context-sensitive pipeline on a small generated program,
     checked tuple-for-tuple against the naive evaluator. *)
  let params =
    { Synth.Generator.default_params with n_classes = 6; stmts_per_method = 4; calls_per_method = 1; n_interfaces = 1 }
  in
  let fg = Factgen.extract (Synth.Generator.generate params) in
  let otf = Analyses.run_basic ~algo:Analyses.Algo3 fg in
  let ctx = Analyses.make_context fg ~ie:(Analyses.ie_tuples otf) in
  let cs = Analyses.run_cs fg ctx in
  let naive =
    Naive_eval.solve
      (Parser.parse cs.Analyses.program_text)
      ~inputs:
        (naive_inputs fg
        @ [
            ("IEC", List.map (fun (a, b, c, d) -> [ a; b; c; d ]) (Context.iec_tuples ctx));
            ("mC", List.map (fun (a, b) -> [ a; b ]) (Context.mc_tuples ctx));
          ])
  in
  List.iter
    (fun out ->
      Alcotest.(check (list (list int)))
        (Printf.sprintf "engine = naive on %s" out)
        (sorted_tuples_naive naive out) (sorted_tuples_engine cs out))
    [ "vPC"; "hP" ]

let test_handcoded_vs_engine () =
  (* The hand-coded BDD implementation (§6.4 baseline) must agree
     exactly with the bddbddb-style engine on Algorithm 2. *)
  let params = { Synth.Generator.default_params with n_classes = 10; n_thread_classes = 1 } in
  let fg = Factgen.extract (Synth.Generator.generate params) in
  let hand = Pta.Handcoded.run fg in
  let eng = Analyses.run_basic ~algo:Analyses.Algo2 fg in
  let eng_vp = List.sort compare (List.map (fun t -> (t.(0), t.(1))) (Analyses.tuples eng "vP")) in
  let eng_hp = List.sort compare (List.map (fun t -> (t.(0), t.(1), t.(2))) (Analyses.tuples eng "hP")) in
  Alcotest.(check bool) "vP agrees" true (Pta.Handcoded.vp_tuples hand = eng_vp);
  Alcotest.(check bool) "hP agrees" true (Pta.Handcoded.hp_tuples hand = eng_hp)

let test_synth_algo2_vs_naive () =
  (* A generated program exercises statics, threads, virtual dispatch
     and recursion through the whole pipeline. *)
  let params = { Synth.Generator.default_params with n_classes = 8; n_thread_classes = 1; stmts_per_method = 5 } in
  let fg = Factgen.extract (Synth.Generator.generate params) in
  let result = Analyses.run_basic ~algo:Analyses.Algo2 fg in
  check_against_naive fg result.Analyses.program_text result [ "vP"; "hP" ]

let exception_src =
  {|
class Fails extends Object {
  method work() : Object {
    var e : Object
    var ok : Object
    e = new Object() @ "ERR"
    throw e
    ok = new Object() @ "OK"
    return ok
  }
}
class Main extends Object {
  static method main() : void {
    var f : Fails
    var r : Object
    var caught : Object
    f = new Fails() @ "F"
    r = f.work()
    caught = catch
  }
}
entry Main.main
|}

let test_exception_flow () =
  (* The thrown ERR object must reach main's catch through the
     synthetic exception variables, context-insensitively and
     context-sensitively. *)
  let fg = fg_of exception_src in
  let caught = var_named fg "Main.main.caught" in
  let ci = Analyses.run_basic ~algo:Analyses.Algo3 fg in
  Alcotest.(check (list string)) "CI catch sees the thrown object" [ "ERR" ]
    (heap_names fg (targets ci "vP" ~var_pos:0 ~heap_pos:1 caught));
  let r = var_named fg "Main.main.r" in
  Alcotest.(check (list string)) "return still flows normally" [ "OK" ]
    (heap_names fg (targets ci "vP" ~var_pos:0 ~heap_pos:1 r));
  let ctx = Analyses.make_context fg ~ie:(Analyses.ie_tuples ci) in
  let cs = Analyses.run_cs fg ctx in
  Alcotest.(check (list string)) "CS catch sees the thrown object" [ "ERR" ]
    (heap_names fg (targets cs "vPC" ~var_pos:1 ~heap_pos:2 caught))

let array_src =
  {|
class Main extends Object {
  static method main() : void {
    var arr : Object
    var x : Object
    var y : Object
    arr = new Object() @ "ARRAY"
    x = new Object() @ "ELEM"
    arr[] = x
    y = arr[]
  }
}
entry Main.main
|}

let test_array_flow () =
  let fg = fg_of array_src in
  let ci = Analyses.run_basic ~algo:Analyses.Algo2 fg in
  let y = var_named fg "Main.main.y" in
  Alcotest.(check (list string)) "array element read back" [ "ELEM" ]
    (heap_names fg (targets ci "vP" ~var_pos:0 ~heap_pos:1 y))

let test_cs_otf_variant () =
  (* §4.2's on-the-fly CS variant: the discovered context-sensitive
     call graph prunes the virtual dispatch the way Algorithm 3 does,
     so r1 is exactly O1 here too. *)
  let fg = fg_of container_src in
  let result, ctx = Analyses.run_cs_otf fg in
  ignore ctx;
  let r1 = var_named fg "Main.main.r1" in
  Alcotest.(check (list string)) "precise through discovered IECd" [ "O1" ]
    (heap_names fg (targets result "vPC" ~var_pos:1 ~heap_pos:2 r1));
  (* The discovered edge set is a subset of the conservative IEC. *)
  let iecd = Analyses.count result "IECd" in
  let iec = Relation.count (Analyses.relation result "IEC") in
  Alcotest.(check bool) "IECd subset of IEC" true (iecd <= iec && iecd > 0.0)

let depth2_src =
  {|
class Id extends Object {
  static method id(x : Object) : Object {
    return x
  }
}
class Mid extends Object {
  static method mid(y : Object) : Object {
    var r : Object
    r = Id.id(y)
    return r
  }
}
class Main extends Object {
  static method main() : void {
    var o1 : Object
    var o2 : Object
    var r1 : Object
    var r2 : Object
    o1 = new Object() @ "D1"
    o2 = new Object() @ "D2"
    r1 = Mid.mid(o1)
    r2 = Mid.mid(o2)
  }
}
entry Main.main
|}

let test_1cfa_vs_full_cloning () =
  (* Both calls reach Id.id through Mid's single call site, so 1-CFA
     (last call site) merges them while full path cloning keeps them
     apart (§1.1). *)
  let fg = fg_of depth2_src in
  let r1 = var_named fg "Main.main.r1" in
  let one_cfa, _k = Analyses.run_1cfa fg in
  Alcotest.(check (list string)) "1-CFA merges the two chains" [ "D1"; "D2" ]
    (heap_names fg (targets one_cfa "vPC" ~var_pos:1 ~heap_pos:2 r1));
  let otf = Analyses.run_basic ~algo:Analyses.Algo3 fg in
  let ctx = Analyses.make_context fg ~ie:(Analyses.ie_tuples otf) in
  let full = Analyses.run_cs fg ctx in
  Alcotest.(check (list string)) "full cloning keeps them apart" [ "D1" ]
    (heap_names fg (targets full "vPC" ~var_pos:1 ~heap_pos:2 r1));
  (* Precision ordering as projected sets: full ⊆ 1-CFA ⊆ CI. *)
  let proj result = List.sort_uniq compare (List.map (fun t -> (t.(1), t.(2))) (Analyses.tuples result "vPC")) in
  let ci = Analyses.run_basic ~algo:Analyses.Algo2 fg in
  let vp_ci = List.sort_uniq compare (List.map (fun t -> (t.(0), t.(1))) (Analyses.tuples ci "vP")) in
  Alcotest.(check bool) "full within 1-CFA" true (List.for_all (fun x -> List.mem x (proj one_cfa)) (proj full));
  Alcotest.(check bool) "1-CFA within CI" true (List.for_all (fun x -> List.mem x vp_ci) (proj one_cfa))

let test_steensgaard_baseline () =
  (* Unification overapproximates inclusion: every Algorithm 2 fact is
     a Steensgaard fact, and on the container program the two distinct
     objects collapse into one class. *)
  let fg = fg_of container_src in
  let st = Pta.Steensgaard.run fg in
  let algo2 = Analyses.run_basic ~algo:Analyses.Algo2 fg in
  let vp2 = List.sort_uniq compare (List.map (fun t -> (t.(0), t.(1))) (Analyses.tuples algo2 "vP")) in
  let vps = Pta.Steensgaard.vp_tuples st in
  Alcotest.(check bool) "inclusion subset of unification" true (List.for_all (fun x -> List.mem x vps) vp2);
  let o1 = var_named fg "Main.main.o1" in
  Alcotest.(check bool) "unification merges O1 and O2" true
    (List.length (Pta.Steensgaard.points_to_of st o1) >= 2);
  Alcotest.(check bool) "avg set size at least inclusion's" true
    (Pta.Steensgaard.avg_points_to st
    >= Relation.count (Analyses.relation algo2 "vP") /. float_of_int (List.length (List.sort_uniq compare (List.map (fun t -> t.(0)) (Analyses.tuples algo2 "vP")))));
  (* Random programs keep the subset property. *)
  List.iter
    (fun seed ->
      let params = { Synth.Generator.default_params with seed; n_classes = 8; n_thread_classes = 1 } in
      let fg = Factgen.extract (Synth.Generator.generate params) in
      let st = Pta.Steensgaard.run fg in
      let vps = Pta.Steensgaard.vp_tuples st in
      let algo2 = Analyses.run_basic ~algo:Analyses.Algo2 fg in
      let vp2 = List.sort_uniq compare (List.map (fun t -> (t.(0), t.(1))) (Analyses.tuples algo2 "vP")) in
      Alcotest.(check bool)
        (Printf.sprintf "subset for seed %d" seed)
        true
        (List.for_all (fun x -> List.mem x vps) vp2))
    [ 1; 7; 99 ]

let cast_src =
  {|
class Apple extends Object {
}
class Banana extends Object {
}
class Main extends Object {
  static method pick(b : Object) : Object {
    return b
  }
  static method main() : void {
    var a : Apple
    var b : Banana
    var mixed : Object
    var fruit : Banana
    a = new Apple() @ "APPLE"
    b = new Banana() @ "BANANA"
    mixed = Main.pick(a)
    mixed = Main.pick(b)
    fruit = (Banana) mixed
  }
}
entry Main.main
|}

let test_cast_type_filter () =
  (* Casts are distinct variables in V with their own declared types
     (§2.3): the type filter drops the Apple from the downcast result
     even context-insensitively. *)
  let fg = fg_of cast_src in
  let mixed = var_named fg "Main.main.mixed" in
  let fruit = var_named fg "Main.main.fruit" in
  let ci = Analyses.run_basic ~algo:Analyses.Algo2 fg in
  Alcotest.(check (list string)) "mixed holds both" [ "APPLE"; "BANANA" ]
    (heap_names fg (targets ci "vP" ~var_pos:0 ~heap_pos:1 mixed));
  Alcotest.(check (list string)) "cast filters to Banana" [ "BANANA" ]
    (heap_names fg (targets ci "vP" ~var_pos:0 ~heap_pos:1 fruit));
  (* Algorithm 1 (no type filter) keeps both — the imprecision the
     filter removes. *)
  let nofilter = Analyses.run_basic ~algo:Analyses.Algo1 fg in
  Alcotest.(check (list string)) "no filter keeps both" [ "APPLE"; "BANANA" ]
    (heap_names fg (targets nofilter "vP" ~var_pos:0 ~heap_pos:1 fruit));
  (* Context-sensitively the cast stays filtered too. *)
  let ctx = Analyses.make_context fg ~ie:(Analyses.ie_tuples (Analyses.run_basic ~algo:Analyses.Algo3 fg)) in
  let cs = Analyses.run_cs fg ctx in
  Alcotest.(check (list string)) "CS cast filtered" [ "BANANA" ]
    (heap_names fg (targets cs "vPC" ~var_pos:1 ~heap_pos:2 fruit))

let test_order_search () =
  let fg = fg_of container_src in
  let candidates = Pta.Order_search.search ~budget:3 fg (Pta.Order_search.Basic Analyses.Algo2) in
  Alcotest.(check bool) "at least default and reverse" true (List.length candidates >= 2);
  let peaks = List.map (fun c -> c.Pta.Order_search.peak_nodes) candidates in
  Alcotest.(check bool) "sorted best-first" true (List.sort compare peaks = peaks)

(* --- Thread escape analysis --- *)

let escape_src =
  {|
class Worker extends Thread {
  field priv : Object
  method run() : void {
    var o : Object
    var s : Object
    o = new Object() @ "WLOCAL"
    this.priv = o
    sync o
    s = new Object() @ "WSHARED"
    Main.shared = s
  }
}
class Main extends Object {
  static field shared : Object
  static method main() : void {
    var t1 : Worker
    var g : Object
    t1 = new Worker() @ "T1"
    t1.start()
    g = Main.shared
    sync g
  }
}
entry Main.main
|}

let test_thread_escape () =
  let fg = fg_of escape_src in
  let result, info = Analyses.run_thread_escape fg in
  (* Contexts: 0 global, 1 main, 2/3 the two Worker clones. *)
  Alcotest.(check int) "contexts" 4 info.Analyses.n_contexts;
  Alcotest.(check int) "one thread site" 1 (List.length info.Analyses.thread_sites);
  let names = Option.get (Factgen.element_names fg "H") in
  let escaped = List.sort_uniq compare (List.map (fun t -> names.(t.(1))) (Analyses.tuples result "escaped")) in
  (* WSHARED flows through the static; the global object and the
     thread object itself are shared between contexts. *)
  Alcotest.(check bool) "WSHARED escaped" true (List.mem "WSHARED" escaped);
  Alcotest.(check bool) "thread object escaped" true (List.mem "T1" escaped);
  Alcotest.(check bool) "global escaped" true (List.mem "<global>" escaped);
  Alcotest.(check bool) "WLOCAL captured" false (List.mem "WLOCAL" escaped);
  let counts = Analyses.escape_counts fg result in
  Alcotest.(check int) "captured sites" 1 counts.Analyses.captured_sites;
  (* syncs: sync o is unneeded (captured), sync g is needed. *)
  Alcotest.(check int) "needed syncs" 1 counts.Analyses.needed_syncs;
  Alcotest.(check int) "unneeded syncs" 1 counts.Analyses.unneeded_syncs

let nested_thread_src =
  {|
class Inner extends Thread {
  method run() : void {
    var b : Object
    b = new Object() @ "INNER-LOCAL"
    sync b
  }
}
class Outer extends Thread {
  method run() : void {
    var t : Inner
    var o : Object
    o = new Object() @ "OUTER-LOCAL"
    t = new Inner() @ "INNER-THREAD"
    t.start()
  }
}
class Main extends Object {
  static method main() : void {
    var w : Outer
    w = new Outer() @ "OUTER-THREAD"
    w.start()
  }
}
entry Main.main
|}

let test_nested_threads () =
  (* A thread creating threads: discovery must iterate — Inner's
     creation site is only visible from Outer's contexts. *)
  let fg = fg_of nested_thread_src in
  let result, info = Analyses.run_thread_escape fg in
  (* 0 global, 1 main, 2-3 Outer clones, 4-5 Inner clones. *)
  Alcotest.(check int) "six contexts" 6 info.Analyses.n_contexts;
  Alcotest.(check int) "two thread sites" 2 (List.length info.Analyses.thread_sites);
  let names = Option.get (Factgen.element_names fg "H") in
  let escaped = List.sort_uniq compare (List.map (fun t -> names.(t.(1))) (Analyses.tuples result "escaped")) in
  Alcotest.(check bool) "both thread objects escape" true
    (List.mem "OUTER-THREAD" escaped && List.mem "INNER-THREAD" escaped);
  Alcotest.(check bool) "locals stay captured" true
    ((not (List.mem "INNER-LOCAL" escaped)) && not (List.mem "OUTER-LOCAL" escaped));
  let counts = Analyses.escape_counts fg result in
  Alcotest.(check int) "all syncs removable" 0 counts.Analyses.needed_syncs

let test_single_threaded_escape () =
  let fg = fg_of container_src in
  let result, info = Analyses.run_thread_escape fg in
  Alcotest.(check int) "two contexts (global + main)" 2 info.Analyses.n_contexts;
  let counts = Analyses.escape_counts fg result in
  (* Only the global object escapes, as the paper reports for its
     single-threaded benchmarks (§6.3). *)
  Alcotest.(check int) "one escaped site" 1 counts.Analyses.escaped_sites

let test_precision_lattice_on_synth () =
  (* End-to-end invariant on a generated mid-size program: projected
     points-to sets shrink monotonically along
     Steensgaard ⊇ CHA ⊇ on-the-fly ⊇ 1-CFA ⊇ full cloning. *)
  let profile = Option.get (Synth.Profiles.find "joone") in
  let fg = Factgen.extract (Synth.Generator.generate (Synth.Profiles.params ~scale:0.02 profile)) in
  let pairs2 result rel = List.sort_uniq compare (List.map (fun t -> (t.(0), t.(1))) (Analyses.tuples result rel)) in
  let proj result = List.sort_uniq compare (List.map (fun t -> (t.(1), t.(2))) (Analyses.tuples result "vPC")) in
  let subset a b = List.for_all (fun x -> List.mem x b) a in
  let steens = Pta.Steensgaard.vp_tuples (Pta.Steensgaard.run fg) in
  let cha = Analyses.run_basic ~algo:Analyses.Algo2 fg in
  let otf = Analyses.run_basic ~algo:Analyses.Algo3 fg in
  let ctx = Analyses.make_context fg ~ie:(Analyses.ie_tuples otf) in
  let full = Analyses.run_cs fg ctx in
  let cfa1, _ = Analyses.run_1cfa fg in
  let vp_cha = pairs2 cha "vP" and vp_otf = pairs2 otf "vP" in
  Alcotest.(check bool) "CHA within Steensgaard" true (subset vp_cha steens);
  Alcotest.(check bool) "on-the-fly within CHA" true (subset vp_otf vp_cha);
  Alcotest.(check bool) "full cloning within on-the-fly" true (subset (proj full) vp_otf);
  (* 1-CFA is numbered over the CHA graph, so compare against CHA. *)
  Alcotest.(check bool) "1-CFA within CHA" true (subset (proj cfa1) vp_cha);
  Alcotest.(check bool) "strictly fewer pairs down the lattice" true
    (List.length (proj full) <= List.length vp_otf && List.length vp_otf <= List.length vp_cha
    && List.length vp_cha <= List.length steens)

(* --- §5 queries --- *)

let test_type_refinement () =
  let fg = fg_of container_src in
  let ci = Analyses.run_basic ~algo:Analyses.Algo2 ~query:Queries.refinement_ci fg in
  let ci_r = Analyses.refinement_ratios (Analyses.count ci) ~per_clone:false in
  let otf = Analyses.run_basic ~algo:Analyses.Algo3 fg in
  let ctx = Analyses.make_context fg ~ie:(Analyses.ie_tuples otf) in
  let cs_proj = Analyses.run_cs fg ctx ~query:Queries.refinement_projected_cs in
  let proj_r = Analyses.refinement_ratios (Analyses.count cs_proj) ~per_clone:false in
  let cs_full = Analyses.run_cs fg ctx ~query:Queries.refinement_full_cs in
  let full_r = Analyses.refinement_ratios (Analyses.count cs_full) ~per_clone:true in
  let ts_full = Analyses.run_cs_types fg ctx ~query:Queries.refinement_full_ts in
  let ts_r = Analyses.refinement_ratios (Analyses.count ts_full) ~per_clone:true in
  let in_range r =
    r.Analyses.multi_pct >= 0.0 && r.Analyses.multi_pct <= 100.0 && r.Analyses.refinable_pct >= 0.0
    && r.Analyses.refinable_pct <= 100.0 && r.Analyses.population > 0.0
  in
  List.iter (fun r -> Alcotest.(check bool) "ratios in range" true (in_range r)) [ ci_r; proj_r; full_r; ts_r ];
  (* The paper's precision ordering: context-sensitive results are at
     least as precise (fewer multi-typed) as context-insensitive. *)
  Alcotest.(check bool) "projected CS <= CI multi" true (proj_r.Analyses.multi_pct <= ci_r.Analyses.multi_pct);
  Alcotest.(check bool) "full CS <= projected CS multi" true (full_r.Analyses.multi_pct <= proj_r.Analyses.multi_pct)

let test_jce_vuln_query () =
  let params = { Synth.Generator.default_params with n_classes = 8; jce_flavor = true } in
  let p = Synth.Generator.generate params in
  let fg = Factgen.extract p in
  let otf = Analyses.run_basic ~algo:Analyses.Algo3 fg in
  let ctx = Analyses.make_context fg ~ie:(Analyses.ie_tuples otf) in
  let cs = Analyses.run_cs fg ctx ~query:(Queries.jce_vuln ~init_method:"PBEKeySpec.init") in
  let from_string = Analyses.tuples cs "fromString" in
  Alcotest.(check bool) "String-derived objects found" true (from_string <> []);
  let inames = Option.get (Factgen.element_names fg "I") in
  let vuln_sites = List.sort_uniq compare (List.map (fun t -> inames.(t.(1))) (Analyses.tuples cs "vuln")) in
  Alcotest.(check (list string)) "exactly the vulnerable call" [ "main:vuln-call" ] vuln_sites

let test_leak_query () =
  let fg = fg_of container_src in
  let otf = Analyses.run_basic ~algo:Analyses.Algo3 fg in
  let ctx = Analyses.make_context fg ~ie:(Analyses.ie_tuples otf) in
  let cs = Analyses.run_cs fg ctx ~query:(Queries.who_points_to ~heap_label:"O1") in
  let hnames = Option.get (Factgen.element_names fg "H") in
  let holders = List.sort_uniq compare (List.map (fun t -> hnames.(t.(0))) (Analyses.tuples cs "whoPointsTo")) in
  (* O1 is stored into a1's field: A1 holds it. *)
  Alcotest.(check (list string)) "who points to O1" [ "A1" ] holders;
  Alcotest.(check bool) "whoDunnit found the store" true (Analyses.tuples cs "whoDunnit" <> [])

let test_mod_ref () =
  let fg = fg_of container_src in
  let otf = Analyses.run_basic ~algo:Analyses.Algo3 fg in
  let ctx = Analyses.make_context fg ~ie:(Analyses.ie_tuples otf) in
  let cs = Analyses.run_cs fg ctx ~query:Queries.mod_ref in
  let mnames = Option.get (Factgen.element_names fg "M") in
  let hnames = Option.get (Factgen.element_names fg "H") in
  let mods =
    List.sort_uniq compare (List.map (fun t -> (mnames.(t.(1)), hnames.(t.(2)))) (Analyses.tuples cs "modset"))
  in
  (* set modifies its receiver's field; main transitively does too. *)
  Alcotest.(check bool) "A.set mods A1" true (List.mem ("A.set", "A1") mods);
  Alcotest.(check bool) "Main.main mods A1 transitively" true (List.mem ("Main.main", "A1") mods);
  Alcotest.(check bool) "A.get mods nothing" true (List.for_all (fun (m, _) -> m <> "A.get") mods);
  let refs =
    List.sort_uniq compare (List.map (fun t -> (mnames.(t.(1)), hnames.(t.(2)))) (Analyses.tuples cs "refset"))
  in
  Alcotest.(check bool) "A.get refs A1" true (List.mem ("A.get", "A1") refs)

let () =
  Alcotest.run "pta"
    [
      ( "context",
        [
          Alcotest.test_case "Example 1 clone counts" `Quick test_example1_counts;
          Alcotest.test_case "IEC/mC BDDs match tuples" `Quick test_example1_bdds_match_tuples;
          Alcotest.test_case "cap merging" `Quick test_context_cap_merging;
        ] );
      ( "precision",
        [
          Alcotest.test_case "CHA >= on-the-fly >= context-sensitive" `Quick test_precision_ordering;
        ] );
      ( "differential",
        [
          Alcotest.test_case "algo2 vs naive" `Quick test_algo2_vs_naive;
          Alcotest.test_case "algo3 vs naive" `Quick test_algo3_vs_naive;
          Alcotest.test_case "algo5 vs naive" `Quick test_algo5_vs_naive;
          Alcotest.test_case "synth program vs naive" `Quick test_synth_algo2_vs_naive;
          Alcotest.test_case "hand-coded vs engine" `Quick test_handcoded_vs_engine;
          Alcotest.test_case "synth algo5 vs naive" `Quick test_synth_algo5_vs_naive;
        ] );
      ( "escape",
        [
          Alcotest.test_case "two-thread program" `Quick test_thread_escape;
          Alcotest.test_case "single-threaded program" `Quick test_single_threaded_escape;
          Alcotest.test_case "nested thread creation" `Quick test_nested_threads;
        ] );
      ( "features",
        [
          Alcotest.test_case "exception flow" `Quick test_exception_flow;
          Alcotest.test_case "array element flow" `Quick test_array_flow;
          Alcotest.test_case "order search" `Quick test_order_search;
          Alcotest.test_case "cast type filtering" `Quick test_cast_type_filter;
          Alcotest.test_case "on-the-fly CS variant" `Quick test_cs_otf_variant;
          Alcotest.test_case "1-CFA vs full cloning" `Quick test_1cfa_vs_full_cloning;
          Alcotest.test_case "Steensgaard baseline" `Quick test_steensgaard_baseline;
          Alcotest.test_case "precision lattice on synth" `Quick test_precision_lattice_on_synth;
        ] );
      ( "queries",
        [
          Alcotest.test_case "type refinement" `Quick test_type_refinement;
          Alcotest.test_case "JCE vulnerability" `Quick test_jce_vuln_query;
          Alcotest.test_case "memory leak" `Quick test_leak_query;
          Alcotest.test_case "mod-ref" `Quick test_mod_ref;
        ] );
    ]
