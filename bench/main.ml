(* Benchmark harness: regenerates every table and figure of the
   paper's evaluation (§6) over the 21 scaled synthetic benchmarks.

     dune exec bench/main.exe -- [--table fig3|fig4|fig5|fig6|scaling|ablations|update|certify|mem|example1|bechamel|all]
                                 (comma-separate to run several, e.g. --table fig4,update)
                                 [--scale S] [--benchmarks a,b,c]
                                 [--json OUT.json]

   Shapes, not absolute numbers, are the target: who wins, by what
   kind of factor, and how cost grows with the number of contexts.
   Paper values are printed alongside for comparison.

   [--json OUT.json] additionally writes every engine-backed run as a
   machine-readable record — wall-clock seconds, peak live BDD nodes,
   op-cache hit rate, rule applications, fixpoint rounds, GC count —
   so the perf trajectory across PRs can be tracked (the checked-in
   baseline lives in BENCH_results.json). *)

module Ir = Jir.Ir
module Factgen = Jir.Factgen
module Analyses = Pta.Analyses
module Context = Pta.Context
module Callgraph = Pta.Callgraph
module Queries = Pta.Queries
module Engine = Datalog.Engine
module Ast = Datalog.Ast

let scale = ref 0.04
let table = ref "all"
let only = ref []
let json_path = ref None

let () =
  let rec parse = function
    | [] -> ()
    | "--table" :: v :: rest ->
      table := v;
      parse rest
    | "--scale" :: v :: rest ->
      scale := float_of_string v;
      parse rest
    | "--benchmarks" :: v :: rest ->
      only := String.split_on_char ',' v;
      parse rest
    | "--json" :: v :: rest ->
      (* Fail fast on an unwritable path rather than after minutes of runs. *)
      (try close_out (open_out v)
       with Sys_error msg ->
         prerr_endline ("cannot write --json output: " ^ msg);
         exit 1);
      json_path := Some v;
      parse rest
    | arg :: _ ->
      prerr_endline ("unknown argument " ^ arg);
      exit 1
  in
  parse (List.tl (Array.to_list Sys.argv))

(* --- Machine-readable results (--json) --- *)

type json_row = {
  r_table : string;
  r_bench : string;
  r_algo : string;
  r_seconds : float;
  r_peak : int;
  r_hit_rate : float;
  r_rule_apps : int;
  r_iters : int;
  r_gcs : int;
  r_arena : Bdd.arena_stats;
  r_rules : Engine.rule_stat list;
}

let json_rows : json_row list ref = ref []

let record ~table:r_table ~bench:r_bench ~algo:r_algo (s : Engine.stats) =
  json_rows :=
    {
      r_table;
      r_bench;
      r_algo;
      r_seconds = s.Engine.solve_seconds;
      r_peak = s.Engine.peak_live_nodes;
      r_hit_rate = Engine.cache_hit_rate s;
      r_rule_apps = s.Engine.rule_applications;
      r_iters = s.Engine.iterations;
      r_gcs = s.Engine.gcs;
      r_arena = s.Engine.arena;
      r_rules = s.Engine.rule_stats;
    }
    :: !json_rows

let json_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Per-rule attribution of one engine run: "file:line" (or the head
   predicate when the rule has no position), seconds, applications, and
   BDD op-cache lookups. *)
let json_rules (rules : Engine.rule_stat list) =
  String.concat ", "
    (List.map
       (fun (r : Engine.rule_stat) ->
         let where =
           match r.Engine.rs_rule.Ast.rule_pos with
           | Some p -> Format.asprintf "%a" Ast.pp_pos p
           | None -> r.Engine.rs_rule.Ast.head.Ast.pred
         in
         Printf.sprintf
           "{ \"rule\": \"%s\", \"head\": \"%s\", \"seconds\": %.6f, \"applications\": %d, \
            \"bdd_cache_lookups\": %d }"
           (json_escape where)
           (json_escape r.Engine.rs_rule.Ast.head.Ast.pred)
           r.Engine.rs_seconds r.Engine.rs_applications r.Engine.rs_cache_lookups)
       rules)

let write_json path =
  let oc = open_out path in
  Printf.fprintf oc "{\n  \"schema\": \"whalelam-bench-v7\",\n";
  Printf.fprintf oc
    "  \"schema_note\": \"v7 adds the certify table: <label>-cold-solve vs <label>-certify rows compare a \
     full solve against an independent fixpoint certification of its saved store (one non-semi-naive rule \
     application plus input containment), for the context-insensitive (cha/algo2) and claimed-context \
     context-sensitive (cs/algo5) checker paths.  \
     v6 adds the mem table (an eviction-rate sweep over node-arena memory caps) and per-row arena \
     counters: every engine-backed row \
     carries an arena object (page_bits, pages_total/resident/pinned, peak_pages_resident, evictions, \
     fault_ins, spill_reads, spill_writes, table_bytes) from the paged node arena; rows measured outside \
     the engine carry a zeroed arena object.  \
     v5 adds the update table: cold-solve vs incremental-update rows time a one-method \
     edit re-solved through the delta-layer store, and load-N-layers/load-compacted rows sweep chain length.  \
     v3 added per-rule attribution: each engine-backed row carries a rules array \
     (rule = file:line of the Datalog rule, head predicate, seconds, applications, bdd_cache_lookups); \
     rows measured outside the engine carry zero solve counters and an empty rules array\",\n";
  Printf.fprintf oc "  \"scale\": %g,\n  \"rows\": [" !scale;
  List.iteri
    (fun i r ->
      let a = r.r_arena in
      Printf.fprintf oc "%s\n    { \"table\": \"%s\", \"benchmark\": \"%s\", \"algo\": \"%s\", \"seconds\": %.6f, \
                         \"peak_live_nodes\": %d, \"cache_hit_rate\": %.4f, \"rule_applications\": %d, \
                         \"iterations\": %d, \"gcs\": %d, \"arena\": { \"page_bits\": %d, \"pages_total\": %d, \
                         \"pages_resident\": %d, \"pages_pinned\": %d, \"peak_pages_resident\": %d, \
                         \"evictions\": %d, \"fault_ins\": %d, \"spill_reads\": %d, \"spill_writes\": %d, \
                         \"table_bytes\": %d }, \"rules\": [%s] }"
        (if i = 0 then "" else ",")
        (json_escape r.r_table) (json_escape r.r_bench) (json_escape r.r_algo) r.r_seconds r.r_peak r.r_hit_rate
        r.r_rule_apps r.r_iters r.r_gcs a.Bdd.page_bits a.Bdd.pages_total a.Bdd.pages_resident a.Bdd.pages_pinned
        a.Bdd.peak_pages_resident a.Bdd.evictions a.Bdd.fault_ins a.Bdd.spill_reads a.Bdd.spill_writes
        a.Bdd.table_bytes (json_rules r.r_rules))
    (List.rev !json_rows);
  Printf.fprintf oc "\n  ]\n}\n";
  close_out oc;
  Printf.printf "\nwrote %d benchmark records to %s\n" (List.length !json_rows) path

let profiles () =
  List.filter (fun p -> !only = [] || List.mem p.Synth.Profiles.name !only) Synth.Profiles.all

let header title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* Cache the per-profile pipeline so the figures don't recompute it. *)
type prepared = {
  profile : Synth.Profiles.t;
  fg : Factgen.t;
  otf : Analyses.result;
  ctx : Context.t;
}

let prepared_cache : (string, prepared) Hashtbl.t = Hashtbl.create 32

let prepare profile =
  match Hashtbl.find_opt prepared_cache profile.Synth.Profiles.name with
  | Some p -> p
  | None ->
    let program = Synth.Generator.generate (Synth.Profiles.params ~scale:!scale profile) in
    let fg = Factgen.extract program in
    let otf = Analyses.run_basic ~algo:Analyses.Algo3 fg in
    let ctx = Analyses.make_context fg ~ie:(Analyses.ie_tuples otf) in
    let p = { profile; fg; otf; ctx } in
    Hashtbl.add prepared_cache profile.Synth.Profiles.name p;
    p

let knodes n = float_of_int n /. 1000.0

(* --- Figure 3: benchmark statistics --- *)

let fig3 () =
  header "Figure 3: benchmark statistics (measured at this scale vs paper)";
  Printf.printf "%-11s %8s %8s %8s %7s %7s %10s | %8s %8s %7s\n" "name" "classes" "methods" "stmts" "vars"
    "allocs" "cs-paths" "p.class" "p.meth" "p.paths";
  List.iter
    (fun profile ->
      let { fg; ctx; _ } = prepare profile in
      let p = fg.Factgen.program in
      Printf.printf "%-11s %8d %8d %8d %7d %7d %10s | %8d %8d %7s\n" profile.Synth.Profiles.name (Ir.num_classes p)
        (Ir.num_methods p) (Ir.stmt_count p) (Ir.num_vars p) (Ir.num_heaps p)
        (Bignat.to_scientific (Context.total_paths ctx))
        profile.Synth.Profiles.paper_classes profile.Synth.Profiles.paper_methods profile.Synth.Profiles.paper_paths)
    (profiles ())

(* --- Figure 4: analysis times and memory --- *)

let time_run f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let fig4 () =
  header "Figure 4: analysis time (s) and peak live BDD nodes (K)";
  Printf.printf "%-11s | %6s %6s | %6s %6s | %6s %5s %6s | %7s %7s | %6s %6s | %6s %6s\n" "name" "ci-nf"
    "mem" "ci-tf" "mem" "otf" "iters" "mem" "cs" "mem" "cstype" "mem" "thread" "mem";
  List.iter
    (fun profile ->
      let { fg; ctx; _ } = prepare profile in
      let a1, _ = time_run (fun () -> Analyses.run_basic ~algo:Analyses.Algo1 fg) in
      let a2, _ = time_run (fun () -> Analyses.run_basic ~algo:Analyses.Algo2 fg) in
      let a3, _ = time_run (fun () -> Analyses.run_basic ~algo:Analyses.Algo3 fg) in
      let cs, _ = time_run (fun () -> Analyses.run_cs fg ctx) in
      let ts, _ = time_run (fun () -> Analyses.run_cs_types fg ctx) in
      let (esc, _), _ = time_run (fun () -> Analyses.run_thread_escape fg) in
      let s (r : Analyses.result) = r.Analyses.stats in
      let sec r = (s r).Engine.solve_seconds in
      let mem r = knodes (s r).Engine.peak_live_nodes in
      let name = profile.Synth.Profiles.name in
      List.iter
        (fun (algo, r) -> record ~table:"fig4" ~bench:name ~algo (s r))
        [ ("ci-nofilter", a1); ("ci-typefilter", a2); ("otf", a3); ("cs", cs); ("cstype", ts); ("thread", esc) ];
      Printf.printf
        "%-11s | %6.2f %6.0f | %6.2f %6.0f | %6.2f %5d %6.0f | %7.2f %7.0f | %6.2f %6.0f | %6.2f %6.0f\n"
        profile.Synth.Profiles.name (sec a1) (mem a1) (sec a2) (mem a2) (sec a3) (s a3).Engine.iterations
        (mem a3) (sec cs) (mem cs) (sec ts) (mem ts) (sec esc) (mem esc))
    (profiles ());
  print_endline "\nPaper shape to check: the type filter speeds the CI analysis up (ci-tf <= ci-nf);";
  print_endline "the CS type analysis is much cheaper than CS pointers; thread-sensitive cost is";
  print_endline "comparable to context-insensitive cost."

(* --- Figure 5: escape analysis --- *)

let fig5 () =
  header "Figure 5: escape analysis (allocation sites and sync operations)";
  Printf.printf "%-11s %9s %9s %9s %9s\n" "name" "captured" "escaped" "-needed" "needed";
  List.iter
    (fun profile ->
      let { fg; _ } = prepare profile in
      let result, _info = Analyses.run_thread_escape fg in
      let c = Analyses.escape_counts fg result in
      Printf.printf "%-11s %9d %9d %9d %9d\n" profile.Synth.Profiles.name c.Analyses.captured_sites
        c.Analyses.escaped_sites c.Analyses.unneeded_syncs c.Analyses.needed_syncs)
    (profiles ());
  print_endline "\nPaper shape to check: single-threaded benchmarks (freetts, openwfe, pmd) have";
  print_endline "exactly one escaped object (the global); multi-threaded ones capture 30-50% of";
  print_endline "sites and 15-30% of syncs are unneeded."

(* --- Figure 6: type refinement --- *)

let fig6 () =
  header "Figure 6: type refinement, % multi-typed / % refinable variables";
  Printf.printf "%-11s | %13s | %13s | %13s | %13s | %13s | %13s\n" "name" "ci-nofilter" "ci-filter"
    "proj-cs-ptr" "proj-cs-type" "full-cs-ptr" "full-cs-type";
  List.iter
    (fun profile ->
      let { fg; ctx; _ } = prepare profile in
      let cell r = Printf.sprintf "%5.1f / %5.1f" r.Analyses.multi_pct r.Analyses.refinable_pct in
      let ratios ~per_clone r = Analyses.refinement_ratios (Analyses.count r) ~per_clone in
      let v1 = ratios ~per_clone:false (Analyses.run_basic ~algo:Analyses.Algo1 fg ~query:Queries.refinement_ci) in
      let v2 = ratios ~per_clone:false (Analyses.run_basic ~algo:Analyses.Algo2 fg ~query:Queries.refinement_ci) in
      let v3 = ratios ~per_clone:false (Analyses.run_cs fg ctx ~query:Queries.refinement_projected_cs) in
      let v4 = ratios ~per_clone:false (Analyses.run_cs_types fg ctx ~query:Queries.refinement_projected_ts) in
      let v5 = ratios ~per_clone:true (Analyses.run_cs fg ctx ~query:Queries.refinement_full_cs) in
      let v6 = ratios ~per_clone:true (Analyses.run_cs_types fg ctx ~query:Queries.refinement_full_ts) in
      Printf.printf "%-11s | %13s | %13s | %13s | %13s | %13s | %13s\n" profile.Synth.Profiles.name (cell v1)
        (cell v2) (cell v3) (cell v4) (cell v5) (cell v6))
    (profiles ());
  print_endline "\nPaper shape to check: multi% falls monotonically with precision; the fully";
  print_endline "context-sensitive columns have by far the fewest multi-typed variables."

(* --- §6.2 scaling: time vs lg^2(paths) --- *)

let scaling () =
  header "Scaling (§6.2): context-sensitive solve time vs lg^2(#paths)";
  print_endline "Same program size, growing call fan-out: paths explode, time should only";
  print_endline "grow with lg^2(paths) (the BDD exploits cross-context sharing).\n";
  let profile = Option.get (Synth.Profiles.find "gruntspud") in
  let base = Synth.Profiles.params ~scale:(2.0 *. !scale) profile in
  Printf.printf "%-8s %9s %10s %8s %10s %14s\n" "fan-out" "methods" "paths" "lg2^2" "cs-time" "time/lg2^2(ms)";
  List.iter
    (fun fanout ->
      let params = { base with Synth.Generator.calls_per_method = fanout } in
      let program = Synth.Generator.generate params in
      let fg = Factgen.extract program in
      let otf = Analyses.run_basic ~algo:Analyses.Algo3 fg in
      let ctx = Analyses.make_context fg ~ie:(Analyses.ie_tuples otf) in
      let cs = Analyses.run_cs fg ctx in
      record ~table:"scaling" ~bench:"gruntspud" ~algo:(Printf.sprintf "cs-fanout-%d" fanout) cs.Analyses.stats;
      let paths = Context.total_paths ctx in
      let lg = float_of_int (Bignat.num_bits paths) in
      let t = cs.Analyses.stats.Engine.solve_seconds in
      Printf.printf "%-8d %9d %10s %8.0f %9.2fs %14.2f\n" fanout (Ir.num_methods fg.Factgen.program)
        (Bignat.to_scientific paths) (lg *. lg) t
        (1000.0 *. t /. (lg *. lg)))
    [ 1; 2; 3; 4; 5; 6 ];
  print_endline "\nPaper shape to check: paths grow by orders of magnitude down the column while";
  print_endline "time grows only by a small factor — polylogarithmic in the path count";
  print_endline "(the paper fits O(lg^2 n), §6.2), nothing like the linear-in-contexts cost";
  print_endline "an explicit representation would pay."

(* --- §6.4 ablations --- *)

let ablations () =
  header "Ablations (§2.4.1 optimizations and §6.4 comparisons)";
  let profile = Option.get (Synth.Profiles.find "gantt") in
  let { fg; ctx; _ } = prepare profile in
  (* bddbddb vs hand-coded Algorithm 2. *)
  let eng, _ = time_run (fun () -> Analyses.run_basic ~algo:Analyses.Algo2 fg) in
  let hand = Pta.Handcoded.run fg in
  let hst = Pta.Handcoded.stats hand in
  Printf.printf "bddbddb engine (Algorithm 2):    %.3fs, %6.0fK peak nodes\n"
    eng.Analyses.stats.Engine.solve_seconds
    (knodes eng.Analyses.stats.Engine.peak_live_nodes);
  Printf.printf "hand-coded BDD (Algorithm 2):    %.3fs, %6.0fK peak nodes (results agree: %b)\n"
    hst.Pta.Handcoded.seconds
    (knodes hst.Pta.Handcoded.peak_live_nodes)
    (hst.Pta.Handcoded.vp_count = Relation.count (Analyses.relation eng "vP"));
  (* Engine optimization toggles on the context-sensitive analysis. *)
  let run_with options label =
    let r, _ = time_run (fun () -> Analyses.run_cs ~options fg ctx) in
    record ~table:"ablations" ~bench:profile.Synth.Profiles.name ~algo:label r.Analyses.stats;
    Printf.printf "%-32s %.3fs, %6.0fK peak nodes, %4d rule applications\n" label
      r.Analyses.stats.Engine.solve_seconds
      (knodes r.Analyses.stats.Engine.peak_live_nodes)
      r.Analyses.stats.Engine.rule_applications
  in
  let d = Engine.default_options in
  run_with d "CS: all optimizations:";
  run_with { d with Engine.semi_naive = false } "CS: no incrementalization:";
  run_with { d with Engine.hoist = false } "CS: no loop-invariant caching:";
  run_with { d with Engine.greedy_blocks = false } "CS: no attribute naming:";
  run_with { d with Engine.reorder_joins = true } "CS: greedy join reordering:";
  (* Variable (domain) order. *)
  let order_run label order =
    let text = Pta.Programs.algo5 fg ~csize:(Context.csize ctx) in
    let eng = Engine.parse_and_create ~element_names:(Factgen.element_names fg) ?domain_order:order text in
    List.iter
      (fun (name, tuples) -> Engine.set_tuples eng name (List.map Array.of_list tuples))
      (Pta.Programs.input_relations fg);
    let block_of rel n = (Relation.find_attr rel n).Relation.block in
    let iec = Engine.relation eng "IEC" in
    Relation.set_bdd iec
      (Context.iec_bdd ctx (Engine.space eng) ~caller:(block_of iec "caller") ~invoke:(block_of iec "invoke")
         ~callee:(block_of iec "callee") ~target:(block_of iec "tgt"));
    let mc = Engine.relation eng "mC" in
    Relation.set_bdd mc
      (Context.mc_bdd ctx (Engine.space eng) ~context:(block_of mc "context") ~target:(block_of mc "method"));
    let s = Engine.run eng in
    record ~table:"ablations" ~bench:profile.Synth.Profiles.name ~algo:label s;
    Printf.printf "%-32s %.3fs, %6.0fK peak nodes\n" label s.Engine.solve_seconds (knodes s.Engine.peak_live_nodes)
  in
  (* §4.2's on-the-fly CS variant over the conservative numbering. *)
  let otf_cs, _ = time_run (fun () -> Analyses.run_cs_otf fg) in
  let otf_cs, _ctx = otf_cs in
  Printf.printf "%-32s %.3fs, %6.0fK peak nodes (IECd %.0f of IEC %.0f edges)\n" "CS: on-the-fly call graph:"
    otf_cs.Analyses.stats.Engine.solve_seconds
    (knodes otf_cs.Analyses.stats.Engine.peak_live_nodes)
    (Analyses.count otf_cs "IECd")
    (Relation.count (Analyses.relation otf_cs "IEC"));
  order_run "CS: declaration domain order:" None;
  order_run "CS: reversed domain order:" (Some [ "C"; "Z"; "M"; "N"; "I"; "T"; "F"; "H"; "V" ]);
  (* The context-insensitive programs run in bddbddb's order; the
     hand-coded Algorithm 2 above keeps its own V H F T layout. *)
  let ci_order_run label algo domain_order =
    let eng, _ = Analyses.prepare_basic ?domain_order ~algo fg in
    let s = Engine.run eng in
    record ~table:"ablations" ~bench:profile.Synth.Profiles.name ~algo:label s;
    Printf.printf "%-32s %.3fs, %6.0fK peak nodes\n" label s.Engine.solve_seconds (knodes s.Engine.peak_live_nodes)
  in
  List.iter
    (fun (algo, name) ->
      ci_order_run (name ^ ", bddbddb order:") algo None;
      ci_order_run (name ^ ", declaration order:") algo (Some [ "V"; "H"; "F"; "T"; "I"; "N"; "M"; "Z" ]))
    [ (Analyses.Algo2, "CI Alg. 2"); (Analyses.Algo3, "CI Alg. 3") ];
  (* Empirical order search, as bddbddb does automatically. *)
  let candidates = Pta.Order_search.search ~budget:5 fg (Pta.Order_search.Context_sensitive ctx) in
  (match (candidates, List.rev candidates) with
  | best :: _, worst :: _ ->
    Printf.printf "order search (%d candidates):    best  %6.0fK nodes (%s)\n" (List.length candidates)
      (knodes best.Pta.Order_search.peak_nodes)
      (String.concat " " best.Pta.Order_search.order);
    Printf.printf "%-32s worst %6.0fK nodes (%s)\n" "" (knodes worst.Pta.Order_search.peak_nodes)
      (String.concat " " worst.Pta.Order_search.order)
  | _, _ -> ());
  (* Context-abstraction and precision baselines (§1 unification
     contrast, §1.1 k-CFA contrast). *)
  header "Baselines: unification vs inclusion vs 1-CFA vs full cloning";
  let projected_pairs result rel attrs =
    Relation.count (Relation.project (Analyses.relation result rel) attrs)
  in
  let st = Pta.Steensgaard.run fg in
  let sst = Pta.Steensgaard.stats st in
  Printf.printf "%-34s %8.3fs  vP pairs %8d\n" "Steensgaard (unification):" sst.Pta.Steensgaard.seconds
    (List.length (Pta.Steensgaard.vp_tuples st));
  let a2, _ = time_run (fun () -> Analyses.run_basic ~algo:Analyses.Algo2 fg) in
  Printf.printf "%-34s %8.3fs  vP pairs %8.0f\n" "Algorithm 2 (inclusion, CI):"
    a2.Analyses.stats.Engine.solve_seconds
    (Analyses.count a2 "vP");
  let cfa1, _k = Analyses.run_1cfa fg in
  Printf.printf "%-34s %8.3fs  vP pairs %8.0f (projected)\n" "Algorithm 5 under 1-CFA:"
    cfa1.Analyses.stats.Engine.solve_seconds
    (projected_pairs cfa1 "vPC" [ "variable"; "heap" ]);
  let full, _ = time_run (fun () -> Analyses.run_cs fg ctx) in
  Printf.printf "%-34s %8.3fs  vP pairs %8.0f (projected)\n" "Algorithm 5 (full cloning):"
    full.Analyses.stats.Engine.solve_seconds
    (projected_pairs full "vPC" [ "variable"; "heap" ]);
  print_endline "\nPaper shape to check: every optimization helps or is neutral; the variable";
  print_endline "order changes cost noticeably (optimal ordering is NP-complete, §2.4.2);";
  print_endline "precision strictly improves from unification to inclusion to 1-CFA to";
  print_endline "full cloning (fewer points-to pairs = more precise)."

(* Rows measured outside the engine (store loads, certifications) have
   no solve counters; only the seconds column is meaningful. *)
let timed_stats seconds =
  {
    Engine.rule_applications = 0;
    iterations = 0;
    strata = 0;
    peak_live_nodes = 0;
    solve_seconds = seconds;
    gcs = 0;
    op_cache = [];
    rule_stats = [];
    arena =
      {
        Bdd.page_bits = 0;
        pages_total = 0;
        pages_resident = 0;
        pages_pinned = 0;
        peak_pages_resident = 0;
        evictions = 0;
        fault_ins = 0;
        spill_reads = 0;
        spill_writes = 0;
        table_bytes = 0;
        resident_bytes = 0;
      };
  }

(* --- Incremental update: single-edit re-solve vs cold --- *)

let update_bench () =
  header "Incremental update: single-edit re-solve vs cold (algo3)";
  Gc.compact ();
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "whalelam-bench-update" in
  Printf.printf "%-11s %10s %10s %9s %9s\n" "name" "cold" "update" "verdict" "speedup";
  List.iter
    (fun name ->
      match Synth.Profiles.find name with
      | None -> ()
      | Some profile ->
        let gen () = Synth.Generator.generate (Synth.Profiles.params ~scale:!scale profile) in
        let fg = Factgen.extract (gen ()) in
        let cold, t_cold = time_run (fun () -> Analyses.run_basic ~algo:Analyses.Algo3 fg) in
        record ~table:"update" ~bench:name ~algo:"cold-solve" cold.Analyses.stats;
        ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir)));
        Bddrel.Store.save ~dir ~key:"bench-update" ~config:[]
          ~space:(Engine.space cold.Analyses.engine)
          ~relations:(Engine.declared_relations cold.Analyses.engine);
        (* One appended method — the incremental-friendly edit shape
           [ptacli update] is built for. *)
        let edited = gen () in
        ignore (Synth.Edits.apply edited { Synth.Edits.kind = Synth.Edits.Add_method; seed = 0 });
        let fg2 = Factgen.extract edited in
        let o, t_upd =
          time_run (fun () ->
              let st = Bddrel.Store.load ~dir in
              match Pta.Incr.update ~algo:Analyses.Algo3 ~store:st fg2 with
              | Ok o -> o
              | Error e -> failwith (Solver_error.to_string e))
        in
        (match o.Pta.Incr.stats with
        | Some s -> record ~table:"update" ~bench:name ~algo:"incremental-update" s
        | None -> record ~table:"update" ~bench:name ~algo:"incremental-update" (timed_stats t_upd));
        Printf.printf "%-11s %9.3fs %9.3fs %9s %8.1fx\n" name t_cold t_upd
          (match o.Pta.Incr.verdict with
          | Pta.Incr.Incremental -> "incr"
          | Pta.Incr.Unchanged -> "unchanged"
          | Pta.Incr.Cold _ -> "cold")
          (t_cold /. t_upd))
    [ "gantt"; "gruntspud" ];
  (* Chain-length sweep: load cost as delta layers stack up, then
     after compaction — the ops question "how often should a watch
     loop compact?". *)
  (match Synth.Profiles.find "gantt" with
  | None -> ()
  | Some profile ->
    Printf.printf "\n%-22s %10s %9s\n" "chain state" "load" "layers";
    let gen () = Synth.Generator.generate (Synth.Profiles.params ~scale:!scale profile) in
    let base = gen () in
    let fg = Factgen.extract base in
    let cold = Analyses.run_basic ~algo:Analyses.Algo3 fg in
    ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir)));
    Bddrel.Store.save ~dir ~key:"chain-0" ~config:[]
      ~space:(Engine.space cold.Analyses.engine)
      ~relations:(Engine.declared_relations cold.Analyses.engine);
    let measure label =
      let _, t = time_run (fun () -> Bddrel.Store.load ~dir) in
      let layers = Option.value (Bddrel.Store.read_layers ~dir) ~default:0 in
      record ~table:"update" ~bench:"gantt" ~algo:label (timed_stats t);
      Printf.printf "%-22s %9.3fs %9d\n" label t layers
    in
    measure "load-base";
    for i = 1 to 8 do
      ignore (Synth.Edits.apply base { Synth.Edits.kind = Synth.Edits.Add_method; seed = i });
      let fgi = Factgen.extract base in
      let st = Bddrel.Store.load ~dir in
      (match Pta.Incr.update ~algo:Analyses.Algo3 ~store:st fgi with
      | Ok o ->
        ignore
          (Bddrel.Store.save_delta ~dir ~key:(Printf.sprintf "chain-%d" i) ~config:[]
             ~space:(Engine.space o.Pta.Incr.engine) ~deltas:o.Pta.Incr.deltas)
      | Error e -> failwith (Solver_error.to_string e));
      if i = 1 || i = 4 || i = 8 then measure (Printf.sprintf "load-%d-layers" i)
    done;
    ignore (Bddrel.Store.compact ~dir);
    measure "load-compacted");
  print_endline "\nShape to check: a one-method edit re-solves several times faster than cold";
  print_endline "with an \"incr\" verdict; chain load cost grows mildly with layer count and";
  print_endline "compaction restores base-load cost."

(* --- Semantic certification: independent check vs cold solve --- *)

(* Certification is one non-semi-naive application of every rule plus
   input containment, so it should cost roughly one fixpoint round of
   the solve it checks — the ops question is whether certify-on-commit
   (ptacli update --certify, the --watch default) is cheap enough to
   leave on.  Measured for both the context-insensitive (algo2) and
   context-sensitive (algo5, claimed-context checker) store shapes. *)
let certify_bench () =
  header "Certification: independent fixpoint check vs cold solve (cha + cs)";
  Gc.compact ();
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "whalelam-bench-certify" in
  Printf.printf "%-11s %-6s %10s %10s %9s\n" "name" "algo" "cold" "certify" "ratio";
  List.iter
    (fun name ->
      match Synth.Profiles.find name with
      | None -> ()
      | Some profile ->
        let { fg; ctx; _ } = prepare profile in
        let run_one label tag solve =
          let r, t_cold = time_run solve in
          record ~table:"certify" ~bench:name ~algo:(label ^ "-cold-solve") r.Analyses.stats;
          ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir)));
          Bddrel.Store.save ~dir
            ~key:("bench-certify-" ^ label)
            ~config:[ ("algo", tag) ]
            ~space:(Engine.space r.Analyses.engine)
            ~relations:(Engine.declared_relations r.Analyses.engine);
          let st = Bddrel.Store.load ~dir in
          let v, t_cert = time_run (fun () -> Pta.Certify.certify_store fg st) in
          if not (Pta.Certify.passed v) then List.iter print_endline (Pta.Certify.verdict_lines v);
          record ~table:"certify" ~bench:name ~algo:(label ^ "-certify") (timed_stats t_cert);
          Printf.printf "%-11s %-6s %9.3fs %9.3fs %8.1f%%\n" name label t_cold t_cert
            (100.0 *. t_cert /. t_cold)
        in
        run_one "cha" "algo2" (fun () -> Analyses.run_basic ~algo:Analyses.Algo2 fg);
        run_one "cs" "algo5" (fun () -> Analyses.run_cs fg ctx))
    [ "gantt"; "gruntspud" ];
  ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir)));
  print_endline "\nShape to check: a certification is one checker-engine build plus one full";
  print_endline "rule-application round.  The cha checker costs about a quarter of its cold";
  print_endline "solve; the claimed-context cs checker's single round over the final vPC";
  print_endline "costs more than half of its solve, up to about all of it."

(* --- Node-arena memory behavior: paging cost --- *)

(* How does gantt's context-sensitive solve time degrade as the memory
   cap squeezes below the working set, and how hard does the pager
   work?  One capped run per cap point, smallest cap last. *)
let mem_bench () =
  header "Memory: eviction rate vs arena cap";
  let d = Engine.default_options in
  match List.find_opt (fun p -> p.Synth.Profiles.name = "gantt") (profiles ()) with
  | None -> ()
  | Some profile ->
    let { fg; ctx; _ } = prepare profile in
    Printf.printf "%-9s | %8s %9s %9s %9s | gantt cs under a shrinking arena cap\n" "cap" "seconds"
      "evictions" "fault-ins" "peak-pages";
    List.iter
      (fun cap_mib ->
        let options =
          match cap_mib with
          | None -> d
          | Some mib -> { d with Engine.mem_cap_bytes = Some (mib * 1024 * 1024) }
        in
        let r = Analyses.run_cs ~options fg ctx in
        let s = r.Analyses.stats in
        let a = s.Engine.arena in
        let label = match cap_mib with None -> "uncapped" | Some mib -> Printf.sprintf "%d MiB" mib in
        record ~table:"mem" ~bench:"gantt"
          ~algo:(match cap_mib with None -> "cap-uncapped" | Some mib -> Printf.sprintf "cap-%dmib" mib)
          s;
        Printf.printf "%-9s | %8.3f %9d %9d %9d |\n" label s.Engine.solve_seconds a.Bdd.evictions
          a.Bdd.fault_ins a.Bdd.peak_pages_resident)
      (* 8 MiB is well under gantt's ~11 MiB live working set: real
         paging (~40k evictions) at still-bounded cost.  Smaller caps
         degrade smoothly too (6 MiB ~6x, 4 MiB ~12x the 8 MiB time)
         but are too slow to re-measure on every harness run. *)
      [ None; Some 24; Some 16; Some 12; Some 8 ];
    print_endline "\nShape to check: caps above the live working set cost nothing (zero";
    print_endline "evictions); below it, eviction rate climbs and time degrades smoothly."

(* --- The paper's running example --- *)

let example1 () =
  header "Example 1 / Figure 1-2: path numbering";
  let p = Ir.create () in
  let g = Ir.add_class p ~name:"G" ~super:(Ir.object_class p) in
  let mk name = Ir.add_method p ~name ~owner:g ~static:true ~formals:[] ~ret:None in
  let m = Array.init 6 (fun i -> mk (Printf.sprintf "M%d" (i + 1))) in
  let call src dst = ignore (Ir.emit_invoke_static p src ~target:dst ~args:[]) in
  List.iter
    (fun (s, d) -> call m.(s - 1) m.(d - 1))
    [ (1, 2); (1, 3); (2, 3); (3, 2); (2, 4); (3, 4); (3, 5); (4, 6); (5, 6) ];
  Ir.add_entry p m.(0);
  let edges = Callgraph.cha_edges p in
  let ctx = Context.number p ~edges ~roots:[ m.(0) ] in
  Array.iteri (fun i mid -> Printf.printf "  M%d: %d contexts\n" (i + 1) (Context.method_contexts ctx mid)) m;
  Printf.printf "  (paper: M1=1, M2=M3=2 [one SCC], M4=4, M5=2, M6=6)\n"

(* --- Bechamel micro-benchmarks: one Test.make per table --- *)

let bechamel () =
  header "Bechamel micro-benchmarks (one Test.make per table, small workload)";
  let open Bechamel in
  let small = Option.get (Synth.Profiles.find "freetts") in
  let fg = (prepare small).fg in
  let otf () = Analyses.run_basic ~algo:Analyses.Algo3 fg in
  let fig3_work () =
    let o = otf () in
    ignore (Context.total_paths (Analyses.make_context fg ~ie:(Analyses.ie_tuples o)))
  in
  let fig4_work () =
    let o = otf () in
    let ctx = Analyses.make_context fg ~ie:(Analyses.ie_tuples o) in
    ignore (Analyses.run_cs fg ctx)
  in
  let fig5_work () = ignore (Analyses.run_thread_escape fg) in
  let fig6_work () = ignore (Analyses.run_basic ~algo:Analyses.Algo2 fg ~query:Queries.refinement_ci) in
  let tests =
    Test.make_grouped ~name:"tables"
      [
        Test.make ~name:"fig3-stats" (Staged.stage fig3_work);
        Test.make ~name:"fig4-cs-points-to" (Staged.stage fig4_work);
        Test.make ~name:"fig5-escape" (Staged.stage fig5_work);
        Test.make ~name:"fig6-refinement" (Staged.stage fig6_work);
      ]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second 2.0) ~kde:None () in
  let raw = Benchmark.all cfg instances tests in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  Hashtbl.iter
    (fun name ols_result ->
      match Analyze.OLS.estimates ols_result with
      | Some [ est ] -> Printf.printf "  %-28s %10.3f ms/run\n" name (est /. 1e6)
      | Some _ | None -> Printf.printf "  %-28s (no estimate)\n" name)
    results

let () =
  let t0 = Unix.gettimeofday () in
  let tables =
    [
      ("example1", example1);
      ("fig3", fig3);
      ("fig4", fig4);
      ("fig5", fig5);
      ("fig6", fig6);
      ("scaling", scaling);
      ("ablations", ablations);
      ("update", update_bench);
      ("certify", certify_bench);
      ("mem", mem_bench);
      ("bechamel", bechamel);
    ]
  in
  let wanted = String.split_on_char ',' !table in
  (* An unknown name would otherwise run nothing and exit 0. *)
  (match List.find_opt (fun name -> name <> "all" && not (List.mem_assoc name tables)) wanted with
  | Some name ->
    Printf.eprintf "unknown table %s (tables: %s)\n" name (String.concat "," (List.map fst tables));
    exit 1
  | None -> ());
  Printf.printf "whalelam benchmark harness - scale %.3f\n" !scale;
  List.iter (fun (name, f) -> if !table = "all" || List.mem name wanted then f ()) tables;
  (match !json_path with
  | Some path -> write_json path
  | None -> ());
  Printf.printf "\ntotal harness time: %.1fs\n" (Unix.gettimeofday () -. t0)
