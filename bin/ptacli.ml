(* ptacli: command-line driver for the whalelam analyses.

   Subcommands:
     stats         program statistics (Figure 3-style row)
     analyze       run one of the paper's algorithms on a .jir program
     query         run a §5 query on top of the context-sensitive analysis
     order-search  empirical BDD domain-order search (§2.4.2)
     datalog       standalone bddbddb: solve a Datalog file over .tuples
     explain       print optimized per-rule query plans (and, after
                   --solve, per-rule time/BDD-op attribution)
     gen           generate a synthetic benchmark program *)

module Ir = Jir.Ir
module Factgen = Jir.Factgen
module Analyses = Pta.Analyses
module Context = Pta.Context
open Cmdliner

let read_program path =
  try Ok (Jir.Jparser.parse_file path) with
  | Jir.Jparser.Parse_error e -> Error (Printf.sprintf "%s:%d: %s" path e.Jir.Jparser.line e.Jir.Jparser.message)
  | Sys_error m -> Error m

let or_die = function
  | Ok v -> v
  | Error m ->
    prerr_endline m;
    exit 1

let program_arg =
  (* A plain string, not Arg.file: missing files are then reported by
     our own error protocol (one line, exit 1) instead of cmdliner's
     usage error (exit 124). *)
  Arg.(required & pos 0 (some string) None & info [] ~docv:"PROGRAM.jir" ~doc:"Program in the textual IR format.")

(* --- resource budgets --- *)

let budget_term =
  let max_nodes =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-nodes" ] ~docv:"N" ~doc:"Abort the solve when live BDD nodes exceed $(docv).")
  in
  let max_allocs =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-allocs" ] ~docv:"N" ~doc:"Abort the solve after $(docv) fresh BDD node allocations.")
  in
  let timeout =
    Arg.(
      value
      & opt (some float) None
      & info [ "timeout" ] ~docv:"SECONDS" ~doc:"Abort the solve after $(docv) seconds of wall-clock time.")
  in
  let max_iters =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-iters" ] ~docv:"N" ~doc:"Abort the solve after $(docv) fixpoint rounds.")
  in
  let make n a t i =
    if n = None && a = None && t = None && i = None then None
    else Some (Budget.make ?max_live_nodes:n ?max_allocations:a ?timeout_s:t ?max_iterations:i ())
  in
  Term.(const make $ max_nodes $ max_allocs $ timeout $ max_iters)

let options_of_budget ?(mem = (None, None)) budget =
  let page_bits, mem_cap_mib = mem in
  {
    Datalog.Engine.default_options with
    Datalog.Engine.budget;
    page_bits;
    mem_cap_bytes = Option.map (fun mib -> mib * 1024 * 1024) mem_cap_mib;
  }

(* --- node-arena paging knobs --- *)

let mem_term =
  let page_bits =
    Arg.(
      value
      & opt (some int) None
      & info [ "page-bits" ] ~docv:"B"
          ~doc:"Node-arena page size: $(docv) node slots per page as a power of two (default 12 = 4096 slots).")
  in
  let mem_cap =
    Arg.(
      value
      & opt (some int) None
      & info [ "mem-cap" ] ~docv:"MIB"
          ~doc:
            "Cap resident BDD node pages at $(docv) MiB.  Past the cap, cold pages spill to a scratch file and \
             fault back in on demand; answers are bit-identical to an uncapped run.")
  in
  (* Checked here, before any command reads a file, and reported through
     the exit-1 protocol (a cmdliner converter would exit 124). *)
  let in_range flag unit lo hi v =
    if v < lo || v > hi then begin
      Printf.eprintf "ptacli: %s: %d is outside the valid range %d to %d%s\n" flag v lo hi unit;
      exit 1
    end
  in
  let check p c =
    Option.iter (in_range "--page-bits" "" 4 22) p;
    Option.iter (in_range "--mem-cap" " MiB" 1 (max_int lsr 20)) c;
    (p, c)
  in
  Term.(const check $ page_bits $ mem_cap)

(* Turn a structured solver error into the process exit protocol (the
   top-level handler prints it and maps it to an exit code). *)
let solved = function
  | Ok r -> r
  | Error e -> raise (Solver_error.Error e)

(* --- persistent result stores --- *)

let read_file_bytes path =
  let ic = try open_in_bin path with Sys_error m -> (prerr_endline m; exit 1) in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> really_input_string ic (in_channel_length ic))

(* Stores persist every declared relation, internals included: an
   incremental [ptacli update] restarts the fixpoint from the previous
   run's working relations, which the interface-only set cannot seed. *)
let save_store ~dir ~key ~config (result : Analyses.result) =
  let eng = result.Analyses.engine in
  let rels = Datalog.Engine.declared_relations eng in
  Store.save ~dir ~key ~config ~space:(Datalog.Engine.space eng) ~relations:rels;
  Printf.printf "store: saved %d relations to %s/store (key %s)\n" (List.length rels) dir (String.sub key 0 12)

let require_store dir =
  if not (Store.exists ~dir) then begin
    prerr_endline (Printf.sprintf "ptacli: no store at %s/store (run 'analyze --save-store %s' first)" dir dir);
    exit 1
  end

let store_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "store" ] ~docv:"DIR"
        ~doc:
          "Persistent result store directory.  When a store with a matching content key exists, answer from it \
           without solving; otherwise solve cold and save.")

(* --- stats --- *)

let stats_cmd =
  let run path =
    let p = or_die (read_program path) in
    let fg = Factgen.extract p in
    let ci = Analyses.run_basic ~algo:Analyses.Algo3 fg in
    let ctx = Analyses.make_context fg ~ie:(Analyses.ie_tuples ci) in
    Printf.printf "classes      %d\n" (Ir.num_classes p);
    Printf.printf "methods      %d\n" (Ir.num_methods p);
    Printf.printf "statements   %d\n" (Ir.stmt_count p);
    Printf.printf "variables    %d\n" (Ir.num_vars p);
    Printf.printf "alloc sites  %d\n" (Ir.num_heaps p);
    Printf.printf "invokes      %d\n" (Ir.num_invokes p);
    Printf.printf "c.s. paths   %s\n" (Bignat.to_scientific (Context.total_paths ctx));
    Printf.printf "max contexts %s\n" (Bignat.to_scientific (Context.max_contexts ctx));
    if Context.merged ctx then print_endline "note: context counts were merged at the bit cap"
  in
  Cmd.v (Cmd.info "stats" ~doc:"Print program statistics (the Figure 3 columns).") Term.(const run $ program_arg)

(* --- analyze --- *)

type algo_choice = Cha_nofilter | Cha | Otf | Cs | Cs_otf | One_cfa | Cs_types | Escape | Handcoded | Steens

let algo_conv =
  Arg.enum
    [
      ("cha-nofilter", Cha_nofilter);
      ("cha", Cha);
      ("otf", Otf);
      ("cs", Cs);
      ("cstypes", Cs_types);
      ("cs-otf", Cs_otf);
      ("1cfa", One_cfa);
      ("escape", Escape);
      ("handcoded", Handcoded);
      ("steensgaard", Steens);
    ]

let print_stats (s : Datalog.Engine.stats) =
  Printf.printf "solve time        %.3fs\n" s.Datalog.Engine.solve_seconds;
  Printf.printf "rule applications %d\n" s.Datalog.Engine.rule_applications;
  Printf.printf "fixpoint rounds   %d\n" s.Datalog.Engine.iterations;
  Printf.printf "strata            %d\n" s.Datalog.Engine.strata;
  Printf.printf "peak BDD nodes    %d\n" s.Datalog.Engine.peak_live_nodes

(* --stats: the per-op-class BDD cache counters, GC totals, and the
   node arena's pager counters. *)
let print_extended_stats (s : Datalog.Engine.stats) =
  Printf.printf "GC runs           %d\n" s.Datalog.Engine.gcs;
  Printf.printf "op cache hit rate %.1f%%\n" (100.0 *. Datalog.Engine.cache_hit_rate s);
  Printf.printf "per-op cache      %10s %12s %8s\n" "hits" "misses" "hit%";
  List.iter
    (fun (name, h, m) ->
      if h + m > 0 then
        Printf.printf "  %-15s %10d %12d %7.1f%%\n" name h m (100.0 *. float_of_int h /. float_of_int (h + m)))
    s.Datalog.Engine.op_cache;
  let a = s.Datalog.Engine.arena in
  Printf.printf "node table bytes  %d\n" a.Bdd.table_bytes;
  Printf.printf "arena pages       %d total, %d resident (peak %d), %d pinned (page bits %d)\n" a.Bdd.pages_total
    a.Bdd.pages_resident a.Bdd.peak_pages_resident a.Bdd.pages_pinned a.Bdd.page_bits;
  if a.Bdd.evictions > 0 || a.Bdd.fault_ins > 0 then
    Printf.printf "arena paging      %d evictions, %d fault-ins, %d spill writes, %d spill reads\n" a.Bdd.evictions
      a.Bdd.fault_ins a.Bdd.spill_writes a.Bdd.spill_reads;
  match Meminfo.peak_rss_kb () with
  | Some kb -> Printf.printf "peak RSS          %d KiB\n" kb
  | None -> ()

let stats_flag =
  Arg.(value & flag & info [ "stats" ] ~doc:"Also print GC count and per-operation BDD cache hit rates.")

(* Print a relation's tuples through its domains' element names, in BDD
   enumeration order.  [analyze --dump] and every [query] answer use it,
   whether the relation was just solved or loaded from a store: both
   carry the same names and the same variable layout, so the same
   relation prints the same bytes. *)
let dump_relation rel =
  Printf.printf "%s (%.0f tuples):\n" (Relation.name rel) (Relation.count rel);
  let doms = List.map (fun (a : Relation.attr) -> a.Relation.block.Space.dom) (Relation.attrs rel) in
  Relation.iter_tuples rel (fun t ->
      Printf.printf "  %s\n" (String.concat "  " (List.mapi (fun i d -> Domain.element_name d t.(i)) doms)))

let print_steens_stats r =
  let st = Pta.Steensgaard.stats r in
  Printf.printf "solve time        %.3fs\n" st.Pta.Steensgaard.seconds;
  Printf.printf "classes           %d\n" st.Pta.Steensgaard.classes;
  Printf.printf "unifications      %d\n" st.Pta.Steensgaard.unifications;
  Printf.printf "vP pairs          %d\n" (List.length (Pta.Steensgaard.vp_tuples r));
  Printf.printf "avg points-to     %.2f\n" (Pta.Steensgaard.avg_points_to r)

let algo_tag = function
  | Cha_nofilter -> "algo1"
  | Cha -> "algo2"
  | Otf -> "algo3"
  | Cs -> "algo5"
  | Cs_otf -> "algo5-otf"
  | One_cfa -> "1cfa"
  | Cs_types -> "algo6"
  | Escape -> "algo7"
  | Handcoded -> "handcoded"
  | Steens -> "steensgaard"

(* The relations [--dump] can print: every relation the algorithm's
   program declares.  The context domain's size does not change the
   declarations, so a placeholder stands in for the solved one. *)
let program_relations fg algo =
  let text =
    match algo with
    | Cha_nofilter -> Some (Pta.Programs.algo1 fg)
    | Cha -> Some (Pta.Programs.algo2 fg)
    | Otf -> Some (Pta.Programs.algo3 fg)
    | Cs | One_cfa -> Some (Pta.Programs.algo5 fg ~csize:1)
    | Cs_otf -> Some (Pta.Programs.algo5_otf fg ~csize:1)
    | Cs_types -> Some (Pta.Programs.algo6 fg ~csize:1)
    | Escape -> Some (Pta.Programs.algo7 fg ~csize:1)
    | Handcoded | Steens -> None
  in
  Option.map (fun t -> List.map (fun d -> d.Datalog.Ast.rel_name) (Datalog.Parser.parse t).Datalog.Ast.relations) text

let analyze_cmd =
  let run path algo dump stats budget mem fallback save_store_dir =
    let p = or_die (read_program path) in
    let fg = Factgen.extract p in
    (match program_relations fg algo with
    | Some known -> (
      match List.filter (fun name -> not (List.mem name known)) dump with
      | [] -> ()
      | name :: _ ->
        Printf.eprintf "ptacli: --dump: %s is not a relation of this algorithm; it has: %s\n" name
          (String.concat " " known);
        exit 1)
    | None -> ());
    let options = options_of_budget ~mem budget in
    (match (save_store_dir, algo) with
    | Some _, (Handcoded | Steens) ->
      prerr_endline "ptacli: --save-store needs an engine-backed algorithm (not handcoded/steensgaard)";
      exit 1
    | _ -> ());
    let finish result =
      print_stats result.Analyses.stats;
      if stats then print_extended_stats result.Analyses.stats;
      List.iter
        (fun name ->
          print_newline ();
          dump_relation (Analyses.relation result name))
        dump;
      match save_store_dir with
      | Some dir ->
        let key =
          Pta.Incr.store_key ~program_bytes:(read_file_bytes path) ~algo:(algo_tag algo) ~query:Pta.Programs.no_query
        in
        save_store ~dir ~key
          ~config:[ ("program", Filename.basename path); ("algo", algo_tag algo) ]
          result
      | None -> ()
    in
    let with_context k =
      let ci = solved (Analyses.solve_basic ~options ~algo:Analyses.Algo3 fg) in
      let ctx = Analyses.make_context fg ~ie:(Analyses.ie_tuples ci) in
      Printf.printf "contexts: %s reduced call paths, C domain size %d%s\n"
        (Bignat.to_scientific (Context.total_paths ctx))
        (Context.csize ctx)
        (if Context.merged ctx then " (merged at cap)" else "");
      k ctx
    in
    if fallback && algo <> Cs then begin
      prerr_endline "ptacli: --fallback only applies to --algo cs";
      exit 1
    end;
    match algo with
    | Cs when fallback ->
      let fb = solved (Analyses.solve_with_fallback ~options ?budget fg) in
      List.iter
        (fun (r, e) ->
          Printf.printf "%s failed: %s\n" (Analyses.rung_name r) (Solver_error.to_string e))
        fb.Analyses.failures;
      (match fb.Analyses.rung with
      | Analyses.Rung_cs -> print_endline "precision: precise (context-sensitive)"
      | rung ->
        Printf.printf "degraded to %s\n" (Analyses.rung_name rung);
        Printf.printf "precision: overapproximate (%s)\n"
          (match rung with Analyses.Rung_ci -> "context-insensitive" | _ -> "unification-based"));
      Printf.printf "vP pairs          %d\n" (List.length fb.Analyses.vp);
      (match (fb.Analyses.result, fb.Analyses.steens) with
      | Some r, _ -> finish r
      | None, Some s -> print_steens_stats s
      | None, None -> ())
    | Cha_nofilter -> finish (solved (Analyses.solve_basic ~options ~algo:Analyses.Algo1 fg))
    | Cha -> finish (solved (Analyses.solve_basic ~options ~algo:Analyses.Algo2 fg))
    | Otf -> finish (solved (Analyses.solve_basic ~options ~algo:Analyses.Algo3 fg))
    | Cs -> with_context (fun ctx -> finish (solved (Analyses.solve_cs ~options fg ctx)))
    | Cs_otf ->
      let result, _ctx = Analyses.run_cs_otf ~options fg in
      finish result
    | One_cfa ->
      let result, _k = Analyses.run_1cfa ~options fg in
      finish result
    | Cs_types -> with_context (fun ctx -> finish (Analyses.run_cs_types ~options fg ctx))
    | Escape ->
      let result, info = Analyses.run_thread_escape ~options fg in
      Printf.printf "thread contexts   %d\n" info.Analyses.n_contexts;
      let c = Analyses.escape_counts fg result in
      Printf.printf "captured sites    %d\n" c.Analyses.captured_sites;
      Printf.printf "escaped sites     %d\n" c.Analyses.escaped_sites;
      Printf.printf "needed syncs      %d\n" c.Analyses.needed_syncs;
      Printf.printf "unneeded syncs    %d\n" c.Analyses.unneeded_syncs;
      finish result
    | Handcoded ->
      let r = Pta.Handcoded.run fg in
      let st = Pta.Handcoded.stats r in
      Printf.printf "solve time        %.3fs\n" st.Pta.Handcoded.seconds;
      Printf.printf "iterations        %d\n" st.Pta.Handcoded.iterations;
      Printf.printf "peak BDD nodes    %d\n" st.Pta.Handcoded.peak_live_nodes;
      Printf.printf "vP tuples         %.0f\n" st.Pta.Handcoded.vp_count;
      Printf.printf "hP tuples         %.0f\n" st.Pta.Handcoded.hp_count
    | Steens -> print_steens_stats (Pta.Steensgaard.run fg)
  in
  let algo =
    Arg.(
      value
      & opt algo_conv Otf
      & info [ "algo"; "a" ] ~docv:"ALGO"
          ~doc:
            "Algorithm: cha-nofilter (Algorithm 1), cha (Algorithm 2), otf (Algorithm 3), cs (Algorithm 5), \
             cs-otf (§4.2 variant), 1cfa (k-CFA baseline), cstypes (Algorithm 6), escape (Algorithm 7), \
             handcoded (manual BDD Algorithm 2), steensgaard (unification baseline).")
  in
  let dump =
    Arg.(value & opt_all string [] & info [ "dump" ] ~docv:"REL" ~doc:"Print the tuples of an output relation.")
  in
  let fallback =
    Arg.(
      value
      & flag
      & info [ "fallback" ]
          ~doc:
            "When the budget exhausts a context-sensitive run, retry context-insensitively (Algorithm 2), \
             then with Steensgaard unification — each rung a sound overapproximation of the one above.")
  in
  let save_store_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "save-store" ] ~docv:"DIR"
          ~doc:
            "Persist the solved relations (inputs and outputs, as one shared-DAG BDD dump) under $(docv)/store, \
             keyed by a content hash of the program and configuration, for later $(b,query --store) / $(b,serve).")
  in
  Cmd.v
    (Cmd.info "analyze" ~doc:"Run one of the paper's analyses.")
    Term.(const run $ program_arg $ algo $ dump $ stats_flag $ budget_term $ mem_term $ fallback $ save_store_dir)

(* --- query --- *)

(* The per-variable queries (--points-to/--alias) over [vPC], its
   context projected away. *)
let answer_pt_queries vpc pt_query alias_query =
  let pt = Relation.project vpc [ "variable"; "heap" ] in
  Fun.protect ~finally:(fun () -> Relation.dispose pt) @@ fun () ->
  let man = Space.man (Relation.space pt) and fpt = Relation.freeze pt in
  let dom_of name = (Relation.find_attr pt name).Relation.block.Space.dom in
  let vdom = dom_of "variable" and hdom = dom_of "heap" in
  let resolve what s =
    match Domain.element_index vdom s with
    | Some v -> v
    | None ->
      prerr_endline (Printf.sprintf "ptacli: unknown %s %S" what s);
      exit 1
  in
  (match pt_query with
  | Some v ->
    let heaps = Pta.Queries.points_to man fpt ~var:(resolve "variable" v) in
    Printf.printf "points-to %s (%d heaps):\n" v (List.length heaps);
    List.iter (fun h -> Printf.printf "  %s\n" (Domain.element_name hdom h)) heaps
  | None -> ());
  match alias_query with
  | Some (v1, v2) ->
    let shared = Pta.Queries.alias_heaps man fpt ~v1:(resolve "variable" v1) ~v2:(resolve "variable" v2) in
    Printf.printf "alias %s %s: %s (%d shared heaps)\n" v1 v2 (if shared = [] then "no" else "yes")
      (List.length shared);
    List.iter (fun h -> Printf.printf "  %s\n" (Domain.element_name hdom h)) shared
  | None -> ()

let query_cmd =
  let run path leak vuln refine modref pt_query alias_query store_dir =
    let p = or_die (read_program path) in
    let fg = Factgen.extract p in
    if leak = None && vuln = None && (not refine) && (not modref) && pt_query = None && alias_query = None then
      prerr_endline "nothing to do: pass --leak, --vuln, --refine, --modref, --points-to or --alias"
    else begin
      (* One solve answers every flag.  Without a store it covers just
         the requested families.  A store's suffix always adds mod-ref
         and refinement, so a later run with the same program and
         --leak/--vuln arguments is a pure read whatever else it asks
         (the store key hashes this exact text). *)
      let stored = store_dir <> None in
      let suffix =
        List.fold_left Pta.Queries.combine Pta.Programs.no_query
          (List.concat
             [
               (if modref || stored then [ Pta.Queries.mod_ref ] else []);
               (if refine || stored then [ Pta.Queries.refinement_projected_cs ] else []);
               (match leak with Some label -> [ Pta.Queries.who_points_to ~heap_label:label ] | None -> []);
               (match vuln with Some meth -> [ Pta.Queries.jce_vuln ~init_method:meth ] | None -> []);
             ])
      in
      let solve () =
        let ci = Analyses.run_basic ~algo:Analyses.Algo3 fg in
        let ctx = Analyses.make_context fg ~ie:(Analyses.ie_tuples ci) in
        Analyses.run_cs fg ctx ~query:suffix
      in
      (* Every answer, in one order, through one relation lookup: the
         solved engine's or the loaded store's. *)
      let answer lookup =
        let dump names = List.iter (fun name -> dump_relation (lookup name)) names in
        if leak <> None then dump [ "whoPointsTo"; "whoDunnit" ];
        if vuln <> None then dump [ "fromString"; "vuln" ];
        if refine then begin
          let r = Analyses.refinement_ratios (fun name -> Relation.count (lookup name)) ~per_clone:false in
          Printf.printf "population %.0f, multi-typed %.2f%%, refinable %.2f%%\n" r.Analyses.population
            r.Analyses.multi_pct r.Analyses.refinable_pct
        end;
        if modref then dump [ "modset"; "refset" ];
        if pt_query <> None || alias_query <> None then answer_pt_queries (lookup "vPC") pt_query alias_query
      in
      match store_dir with
      | None -> answer (Analyses.relation (solve ()))
      | Some dir -> (
        let key = Pta.Incr.store_key ~program_bytes:(read_file_bytes path) ~algo:"algo5" ~query:suffix in
        (* [read_tip] is the cheap probe.  It reads the chain tip's
           identity, so a store that `ptacli update` moved past this
           program is a miss.  The hit itself is decided on the store
           that was loaded: a save committed between probe and load is
           a miss too, not an answer labelled with the wrong store. *)
        let hit =
          match Store.read_tip ~dir with
          | Some tip when tip.Store.key = key ->
            let st = Store.load ~dir in
            if Store.key st = key then Some st else None
          | Some _ | None -> None
        in
        match hit with
        | Some st ->
          Printf.printf "query path: store hit (%s/store, snapshot %d)\n" dir (Store.snapshot st);
          answer (fun name ->
              match Store.find st name with
              | Some rel -> rel
              | None ->
                prerr_endline (Printf.sprintf "ptacli: relation %s missing from store" name);
                exit 1)
        | None ->
          Printf.printf "query path: cold solve (%s)\n"
            (if Store.exists ~dir then "store key mismatch: program or queries changed" else "no store yet");
          let cs = solve () in
          answer (Analyses.relation cs);
          let config =
            [ ("program", Filename.basename path); ("algo", "algo5") ]
            @ (match leak with Some l -> [ ("leak", l) ] | None -> [])
            @ match vuln with Some m -> [ ("vuln", m) ] | None -> []
          in
          save_store ~dir ~key ~config cs)
    end
  in
  let leak = Arg.(value & opt (some string) None & info [ "leak" ] ~docv:"LABEL" ~doc:"§5.1 leak query for a heap label.") in
  let vuln =
    Arg.(value & opt (some string) None & info [ "vuln" ] ~docv:"METHOD" ~doc:"§5.2 String-key audit (e.g. PBEKeySpec.init).")
  in
  let refine = Arg.(value & flag & info [ "refine" ] ~doc:"§5.3 type refinement percentages.") in
  let modref = Arg.(value & flag & info [ "modref" ] ~doc:"§5.4 context-sensitive mod-ref sets.") in
  let pt_query =
    Arg.(
      value
      & opt (some string) None
      & info [ "points-to" ] ~docv:"VAR" ~doc:"Heaps the variable may point to (any context).")
  in
  let alias_query =
    Arg.(
      value
      & opt (some (pair ~sep:',' string string)) None
      & info [ "alias" ] ~docv:"V1,V2" ~doc:"May the two variables alias (share a pointed-to heap)?")
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:
         "Run the §5 queries over the context-sensitive results, answering from a persistent store when one \
          matches ($(b,--store)).")
    Term.(const run $ program_arg $ leak $ vuln $ refine $ modref $ pt_query $ alias_query $ store_dir_arg)

(* --- update: incremental re-analysis against a stored solve --- *)

let update_cmd =
  let run path dir budget mem stats watch poll_interval compact_every certify no_certify =
    let options = options_of_budget ~mem budget in
    (* Certification default: on for --watch (a long-running writer
       feeding --require-certified followers must never commit an
       unvouched layer), off for a one-shot update unless asked. *)
    let do_certify = (not no_certify) && (certify || watch) in
    let plural n = if n = 1 then "" else "s" in
    (* One update cycle (Pta.Incr.commit), printed.  The store is
       re-read each time, so a watch loop always diffs against the
       latest tip. *)
    let update_once () =
      require_store dir;
      let t0 = Unix.gettimeofday () in
      let program_bytes = read_file_bytes path in
      let open Pta.Incr in
      match solved (commit ~options ~certify:do_certify ~compact_every ~dir ~program_path:path ~program_bytes ()) with
      | Current st ->
        Printf.printf "update: store already current (key %s, snapshot %d, %d layers)\n%!"
          (String.sub (Store.key st) 0 12) (Store.snapshot st) (Store.layers st)
      | Committed c ->
        let seconds = Unix.gettimeofday () -. t0 in
        let print_verdict v = List.iter print_endline (Pta.Certify.verdict_lines v) in
        Option.iter print_verdict c.c_check;
        (match c.c_rescue with
        | Some r ->
          Printf.eprintf
            "update: incremental result failed certification; quarantining delta chain and re-solving cold\n%!";
          Option.iter (Printf.eprintf "update: quarantined delta layers to %s\n%!") r.r_quarantined;
          print_verdict r.r_check;
          Printf.printf "update: cold re-solve committed and certified in %.3fs (key %s, snapshot %d)\n%!" seconds
            (String.sub c.c_key 0 12) c.c_snapshot
        | None -> (
          let o = c.c_outcome in
          Printf.printf "update: %s in %.3fs (%d relations changed; snapshot %d, %d layer%s)\n%!"
            (verdict_to_string o.verdict) seconds (List.length o.deltas) c.c_snapshot c.c_layers (plural c.c_layers);
          Option.iter
            (fun (n, snapshot) ->
              Printf.printf "update: compacted %d layer%s into a new base (snapshot %d)\n%!" n (plural n) snapshot)
            c.c_compacted;
          match (stats, o.stats) with
          | true, Some s ->
            print_stats s;
            print_extended_stats s
          | _ -> ()));
        match c.c_mark with
        | Mark_refused msg -> Printf.eprintf "update: not marked certified: %s\n%!" msg
        | Marked | Not_certifying -> ()
    in
    if not watch then update_once ()
    else begin
      (* Writer loop: re-run an update whenever the .jir file changes.
         The program file should be replaced atomically (write + rename)
         — exactly what `gen -o` does — so a poll never reads a torn
         program.  SIGTERM/SIGINT stop cleanly after the in-flight
         update commits, which a downstream `serve --follow` then picks
         up whole or not at all. *)
      let stop = ref false in
      let handler _ = stop := true in
      Sys.set_signal Sys.sigterm (Sys.Signal_handle handler);
      Sys.set_signal Sys.sigint (Sys.Signal_handle handler);
      let file_stat () =
        match Unix.stat path with
        | s -> Some (s.Unix.st_ino, s.Unix.st_mtime, s.Unix.st_size)
        | exception Unix.Unix_error _ -> None
      in
      update_once ();
      let seen = ref (file_stat ()) in
      Printf.eprintf "update: watching %s (poll every %.2fs; SIGTERM stops)\n%!" path poll_interval;
      while not !stop do
        Thread.delay poll_interval;
        if not !stop then begin
          let cur = file_stat () in
          if cur <> !seen && cur <> None then begin
            seen := cur;
            try update_once () with
            | Solver_error.Error e -> Printf.eprintf "update: failed: %s\n%!" (Solver_error.to_string e)
          end
        end
      done;
      prerr_endline "update: watch stopped"
    end
  in
  let store_dir =
    Arg.(
      required
      & opt (some string) None
      & info [ "store" ] ~docv:"DIR"
          ~doc:"Store directory written by $(b,analyze --save-store) (and updated in place by this command).")
  in
  let watch =
    Arg.(
      value & flag
      & info [ "watch" ]
          ~doc:
            "Writer-loop mode: after the first update, keep watching the program file and re-update on every \
             change, feeding $(b,serve --follow) daemons a stream of incremental snapshots.  SIGTERM/SIGINT \
             stop cleanly.")
  in
  let poll_interval =
    Arg.(
      value
      & opt float 0.5
      & info [ "poll-interval" ] ~docv:"SECONDS" ~doc:"How often $(b,--watch) stats the program file.")
  in
  let compact_every =
    Arg.(
      value
      & opt int 16
      & info [ "compact-every" ] ~docv:"N"
          ~doc:
            "Compact the delta chain back to a single base once it reaches $(docv) layers (LSM-style), \
             bounding load-time fold work for followers.  0 never compacts.")
  in
  let certify =
    Arg.(
      value & flag
      & info [ "certify" ]
          ~doc:
            "Semantically certify each result before committing it (independent one-application fixpoint \
             check, see $(b,ptacli certify)): a pass records a $(b,certified) mark for \
             $(b,serve --follow --require-certified) followers; a failure quarantines the delta chain and \
             forces a cold re-solve instead of committing a wrong answer.  Default on under $(b,--watch), \
             off otherwise.")
  in
  let no_certify =
    Arg.(
      value & flag
      & info [ "no-certify" ]
          ~doc:"Skip certification even under $(b,--watch) (overrides $(b,--certify)).")
  in
  Cmd.v
    (Cmd.info "update"
       ~doc:
         "Incrementally re-analyze a modified program against a persistent store: diff the extracted input \
          relations against the stored ones (BDD diffs), re-solve from only the added tuples, and append \
          the result as a delta layer — bit-identical to a cold solve at a fraction of the cost.  Removals \
          or negation fall back to a cold solve and a fresh base (sound by construction, never wrong).  \
          $(b,--watch) turns this into a long-running writer for an evolving codebase, certifying every \
          commit by default (see $(b,--certify)).")
    Term.(
      const run $ program_arg $ store_dir $ budget_term $ mem_term $ stats_flag $ watch $ poll_interval
      $ compact_every $ certify $ no_certify)

(* --- certify: independent semantic check of a stored result --- *)

(* Shared by the top-level `certify` verb and `store certify`: load
   the folded chain tip, re-extract the program's input relations, run
   the independent fixpoint check (Pta.Certify — shares the rule plans
   with the solver but not its fixpoint driver), and on a pass write
   the mark file (store/certified) that `serve --follow
   --require-certified` demands, for the identity that was loaded and
   checked: a save committed in between leaves the store unmarked and
   exits 1.  Exit 1 with the violating rule and bounded witness tuples
   on a failure. *)
let run_certification path dir budget mem max_witness =
  let options = options_of_budget ~mem budget in
  require_store dir;
  let st = Store.load ~dir in
  let p = or_die (read_program path) in
  let fg = Factgen.extract p in
  let v = Pta.Certify.certify_store ~options ~query:Pta.Programs.no_query ~max_witness fg st in
  List.iter print_endline (Pta.Certify.verdict_lines v);
  if Pta.Certify.passed v then begin
    let key = Store.key st and snapshot = Store.snapshot st in
    Store.mark_certified_ident ~dir ~key ~snapshot;
    Printf.printf "certify: marked key %s snapshot %d as certified\n" (String.sub key 0 12) snapshot
  end
  else exit 1

let max_witness_term =
  Arg.(
    value
    & opt int 5
    & info [ "max-witness" ] ~docv:"N"
        ~doc:"Tuples printed per violation witness (the full fresh-tuple count is always reported).")

let certify_store_dir_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "store" ] ~docv:"DIR"
        ~doc:"Store directory written by $(b,analyze --save-store) or $(b,update) (certified in place).")

let certify_cmd =
  Cmd.v
    (Cmd.info "certify"
       ~doc:
         "Independently check that a stored result is a genuine fixpoint of the program it claims to \
          solve: every extracted input relation must be contained in the solution, and one full \
          application of every resolved rule must add nothing (BDD containment per rule).  The checker \
          reuses the solver's optimized rule plans but not its fixpoint driver, so a solver bug, a \
          CRC-clean on-disk corruption, or a wrong incremental shortcut is caught here even when \
          $(b,store verify) reports every checksum healthy.  A pass records a $(b,certified) mark file in the \
          store — what $(b,serve --follow --require-certified) demands before hot-swapping — \
          naming the exact chain-tip identity that was checked, so any later save invalidates it (and a \
          save committed during the check leaves the store unmarked, exit 1).  On failure, prints the \
          first violating rule with bounded witness tuples and exits 1.")
    Term.(const run_certification $ program_arg $ certify_store_dir_arg $ budget_term $ mem_term $ max_witness_term)

(* --- serve ---

   The fault-tolerant daemon driver.  `Pta.Serve.serve_line` does the
   per-request work (budget, firewall, stats); this layer owns the
   process lifecycle: stale-socket detection, a bounded concurrent
   accept loop (one thread per connection doing I/O, evaluation
   dispatched onto a pool of worker domains each owning a private
   overlay of the frozen store), `err busy` backpressure at
   capacity, EINTR-safe accept, and SIGTERM/SIGINT graceful shutdown
   that drains in-flight requests, joins the pool, removes the socket
   file and prints final stats. *)

(* Probe an existing socket path: connect succeeding means a live
   daemon owns it (refuse to clobber); connection refused means the
   previous daemon died without cleanup (unlink the stale file); a
   non-socket at the path is never removed.

   The connect is EINTR-safe: a signal (e.g. a SIGTERM aimed at a
   previous instance mid-restart) interrupting the probe must not
   misclassify a live daemon as stale.  After EINTR the connection may
   complete asynchronously, so a retry answering EALREADY/EISCONN also
   means alive.  [cmd] names the calling subcommand in the messages. *)
let prepare_socket_path ~cmd path =
  if Sys.file_exists path then begin
    match (Unix.stat path).Unix.st_kind with
    | Unix.S_SOCK ->
      let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      let alive =
        let rec connect_probe () =
          match Unix.connect probe (Unix.ADDR_UNIX path) with
          | () -> true
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> connect_probe ()
          | exception Unix.Unix_error ((Unix.EALREADY | Unix.EISCONN), _, _) -> true
          | exception Unix.Unix_error _ -> false
        in
        connect_probe ()
      in
      (try Unix.close probe with Unix.Unix_error _ -> ());
      if alive then begin
        Printf.eprintf "%s: a live daemon is already listening on %s; refusing to replace it\n%!" cmd path;
        exit 1
      end
      else begin
        Printf.eprintf "%s: removing stale socket %s (no listener answered the probe)\n%!" cmd path;
        try Sys.remove path with Sys_error _ -> ()
      end
    | _ ->
      Printf.eprintf "%s: %s exists and is not a socket; refusing to remove it\n%!" cmd path;
      exit 1
  end

(* One connection's request loop for `serve` and `route`: read lines
   until EOF or "quit", answering each through [reply] (which writes to
   [oc] and says whether to hang up); after a reply is flushed, stop if
   [shutdown] is set. *)
let request_loop ~shutdown ic oc reply =
  try
    let continue = ref true in
    while !continue do
      let line = input_line ic in
      if String.trim line = "quit" then continue := false
      else begin
        let close = reply line in
        flush oc;
        if close || !shutdown then continue := false
      end
    done
  with End_of_file | Sys_error _ -> ()

(* The socket shell shared by `serve --socket` and `route`: reclaim a
   stale socket path, bind, print [banner], then accept until
   [shutdown] is set, running [handle id ic oc] for each connection on
   its own thread.  At most [max_clients] connections run at once; a
   further client gets "err busy 0 0us" plus the line [busy ()]
   returns, and is hung up on.  The accept is EINTR-safe and
   shutdown-aware: select with a short timeout, so a signal that lands
   between syscalls is still noticed.

   Graceful shutdown, in order: stop accepting; half-close every live
   connection so blocked readers see EOF once their in-flight request
   has been answered; join the connection threads; run [drain] (the
   caller's watcher or prober, then its pool: what the connections
   used must outlive them, or an in-flight request would bounce);
   finally remove the socket file. *)
let socket_shell ~cmd ~path ~max_clients ~shutdown ~banner ~busy ~drain handle =
  prepare_socket_path ~cmd path;
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 16;
  Printf.eprintf "%s\n%!" banner;
  (* conn_mutex guards conn_fds (the live connections, by id) and
     threads.  The shutdown path reads them from the main thread while
     connection workers mutate them. *)
  let conn_mutex = Mutex.create () in
  let conn_fds : (int, Unix.file_descr) Hashtbl.t = Hashtbl.create 8 in
  let threads = ref [] in
  let next_id = ref 0 in
  let worker (id, cfd) =
    let ic = Unix.in_channel_of_descr cfd and oc = Unix.out_channel_of_descr cfd in
    handle id ic oc;
    (try flush oc with Sys_error _ -> ());
    Mutex.lock conn_mutex;
    Hashtbl.remove conn_fds id;
    Mutex.unlock conn_mutex;
    try Unix.close cfd with Unix.Unix_error _ -> ()
  in
  let rec accept_next () =
    if !shutdown then None
    else
      match Unix.select [ fd ] [] [] 0.25 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_next ()
      | [], _, _ -> accept_next ()
      | _ :: _, _, _ -> (
        match Unix.accept fd with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_next ()
        | cfd, _ -> Some cfd)
  in
  let rec loop () =
    match accept_next () with
    | None -> ()
    | Some cfd ->
      Mutex.lock conn_mutex;
      let full = Hashtbl.length conn_fds >= max_clients in
      if not full then begin
        incr next_id;
        Hashtbl.replace conn_fds !next_id cfd;
        threads := Thread.create worker (!next_id, cfd) :: !threads
      end;
      Mutex.unlock conn_mutex;
      if full then begin
        (* Backpressure: explicit err busy reply, then hang up. *)
        let oc = Unix.out_channel_of_descr cfd in
        (try
           Printf.fprintf oc "err busy 0 0us\n%s\n" (busy ());
           flush oc
         with Sys_error _ -> ());
        try Unix.close cfd with Unix.Unix_error _ -> ()
      end;
      loop ()
  in
  loop ();
  (try Unix.close fd with Unix.Unix_error _ -> ());
  Mutex.lock conn_mutex;
  Hashtbl.iter (fun _ cfd -> try Unix.shutdown cfd Unix.SHUTDOWN_RECEIVE with Unix.Unix_error _ -> ()) conn_fds;
  let conn_threads = !threads in
  Mutex.unlock conn_mutex;
  List.iter (fun t -> try Thread.join t with _ -> ()) conn_threads;
  drain ();
  try Sys.remove path with Sys_error _ -> ()

let serve_cmd =
  let run dir socket max_clients workers req_timeout req_max_allocs req_max_nodes follow poll_interval
      require_certified =
    (* The initial load happens before any socket work on purpose: a
       follower pointed at a missing or broken store must exit with a
       structured error (code 1) without ever binding — leaving no
       socket file behind for a router to trip over. *)
    let st = Store.load ~dir in
    (* --require-certified also gates the *initial* snapshot, on the
       store just loaded: refusing to start beats serving an
       unvouched-for answer until the first swap.  (The same check
       gates every later candidate in Serve.Follow.poll.) *)
    if require_certified && not (Store.certified st) then begin
      Printf.eprintf
        "serve: store at %s is not certified (run 'ptacli certify PROGRAM.jir --store %s' first, or drop \
         --require-certified)\n%!"
        dir dir;
      exit 1
    end;
    let srv = Pta.Serve.make st in
    let stats = Pta.Serve.make_stats () in
    let limits =
      {
        Pta.Serve.rq_timeout_s = (if req_timeout > 0.0 then Some req_timeout else None);
        Pta.Serve.rq_max_allocs = (if req_max_allocs > 0 then Some req_max_allocs else None);
        Pta.Serve.rq_max_nodes = (if req_max_nodes > 0 then Some req_max_nodes else None);
      }
    in
    Printf.eprintf "serve: loaded %d relations from %s/store (key %s snapshot %d)\n%!"
      (List.length (Store.relations st))
      dir
      (String.sub (Store.key st) 0 12)
      (Store.snapshot st);
    let shutdown = ref false in
    (* Evaluation runs on a pool of worker domains, each with a
       private overlay of the frozen store; connection threads only do
       I/O and block in [Pool.run] until their answer is ready.  The
       pool reads the server through a swappable source so a follower
       can hot-swap snapshots underneath it. *)
    let source = Pta.Serve.Source.create srv in
    let pool = Pta.Serve.Pool.create ~limits ~stats ~workers source in
    (* --follow: watch the store directory and hot-swap on a new
       committed save.  The watcher never touches the serving path —
       a rejected (torn/corrupt) candidate logs one structured line
       and the old snapshot keeps answering. *)
    let watcher_thread =
      if not follow then None
      else begin
        let fstate = Pta.Serve.Follow.make ~require_certified ~dir source in
        let watcher () =
          while not !shutdown do
            Thread.delay poll_interval;
            if not !shutdown then
              match Pta.Serve.Follow.poll fstate with
              | Pta.Serve.Follow.Unchanged -> ()
              | Pta.Serve.Follow.Swapped { snapshot; key; seconds } ->
                Pta.Serve.Pool.poke pool;
                Printf.eprintf "serve: swap ok key=%s snapshot=%d (%.2fs)\n%!"
                  (String.sub key 0 12) snapshot seconds
              | Pta.Serve.Follow.Rejected { reason } ->
                Printf.eprintf "serve: swap rejected: %s\n%!" reason
          done
        in
        Printf.eprintf "serve: following %s (poll every %.2fs)\n%!" dir poll_interval;
        Some (Thread.create watcher ())
      end
    in
    (* Once the connections have drained: the watcher, then the pool. *)
    let stop_workers () =
      Option.iter (fun t -> try Thread.join t with _ -> ()) watcher_thread;
      Pta.Serve.Pool.shutdown pool
    in
    let in_flight = Atomic.make 0 in
    let serve_pooled line =
      Atomic.incr in_flight;
      Fun.protect
        ~finally:(fun () -> Atomic.decr in_flight)
        (fun () -> Pta.Serve.Pool.run pool line)
    in
    (* Per query: one header line "ok|err <command> <rows> <latency>"
       on stdout, then the result rows.  The banner and shutdown notes
       go to stderr so stdout stays a pure protocol stream. *)
    let handle_channel ic oc =
      Atomic.incr stats.Pta.Serve.s_connections;
      let served = ref 0 in
      request_loop ~shutdown ic oc (fun line ->
          let s = serve_pooled line in
          let o = s.Pta.Serve.outcome in
          if not (o.Pta.Serve.command = "" && o.Pta.Serve.lines = []) then begin
            incr served;
            Printf.fprintf oc "%s %s %d %.0fus\n"
              (if o.Pta.Serve.ok then "ok" else "err")
              o.Pta.Serve.command o.Pta.Serve.count s.Pta.Serve.latency_us;
            List.iter (fun l -> output_string oc (l ^ "\n")) o.Pta.Serve.lines
          end;
          s.Pta.Serve.close);
      !served
    in
    let print_final () =
      Printf.eprintf "serve: shutdown\n";
      List.iter (fun l -> Printf.eprintf "serve:   %s\n" l) (Pta.Serve.stats_lines stats);
      flush stderr
    in
    (* A peer hanging up mid-reply must error the write, not kill the
       process with SIGPIPE. *)
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    match socket with
    | None ->
      (* stdin mode: one implicit connection.  A signal between
         requests exits immediately; mid-request it drains first. *)
      let handler _ =
        shutdown := true;
        if Atomic.get in_flight = 0 then begin
          print_final ();
          exit 0
        end
      in
      Sys.set_signal Sys.sigterm (Sys.Signal_handle handler);
      Sys.set_signal Sys.sigint (Sys.Signal_handle handler);
      let n = handle_channel stdin stdout in
      shutdown := true;
      stop_workers ();
      Printf.eprintf "serve: done (%d queries)\n%!" n;
      print_final ()
    | Some path ->
      let handler _ = shutdown := true in
      Sys.set_signal Sys.sigterm (Sys.Signal_handle handler);
      Sys.set_signal Sys.sigint (Sys.Signal_handle handler);
      let workers = Pta.Serve.Pool.workers pool in
      socket_shell ~cmd:"serve" ~path ~max_clients ~shutdown
        ~banner:
          (Printf.sprintf
             "serve: listening on %s (max %d concurrent connections, %d worker domain%s; 'quit' ends a \
              connection; SIGTERM drains and exits)"
             path max_clients workers
             (if workers = 1 then "" else "s"))
        ~busy:(fun () ->
          Atomic.incr stats.Pta.Serve.s_rejected;
          Printf.sprintf "server at capacity (%d connections); retry later" max_clients)
        ~drain:stop_workers
        (fun _ ic oc -> Printf.eprintf "serve: connection closed (%d queries)\n%!" (handle_channel ic oc));
      print_final ()
  in
  let dir =
    Arg.(
      required
      & opt (some string) None
      & info [ "store" ] ~docv:"DIR" ~doc:"Store directory written by $(b,analyze --save-store) or $(b,query --store).")
  in
  let socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Listen on a Unix domain socket instead of reading queries from stdin.")
  in
  let max_clients =
    Arg.(
      value
      & opt int 8
      & info [ "max-clients" ] ~docv:"N"
          ~doc:"Concurrent connection cap; further clients get an explicit $(b,err busy) reply.")
  in
  let workers =
    Arg.(
      value
      & opt int 1
      & info [ "workers" ] ~docv:"N"
          ~doc:
            "Worker domains evaluating queries in parallel over the frozen store (each with a private \
             operation cache and node arena).  1 (default) serializes evaluation as before; values up to \
             the core count scale warm-query throughput near-linearly.")
  in
  let req_timeout =
    Arg.(
      value
      & opt float 30.0
      & info [ "request-timeout" ] ~docv:"SECONDS"
          ~doc:"Per-request wall-clock budget; an over-budget query answers $(b,err budget) instead of wedging \
                the daemon.  0 disables.")
  in
  let req_max_allocs =
    Arg.(
      value
      & opt int 0
      & info [ "request-max-allocs" ] ~docv:"N"
          ~doc:"Per-request cap on fresh BDD node allocations.  0 (default) disables.")
  in
  let req_max_nodes =
    Arg.(
      value
      & opt int 0
      & info [ "request-max-nodes" ] ~docv:"N"
          ~doc:"Per-request cap on live BDD node growth.  0 (default) disables.")
  in
  let follow =
    Arg.(
      value & flag
      & info [ "follow" ]
          ~doc:
            "Follower mode: watch the store directory and hot-swap to each new committed save with zero \
             downtime — in-flight queries finish against the old snapshot, later ones answer from the new \
             one.  A torn or corrupt candidate is rejected with a structured log line and the old snapshot \
             keeps serving.")
  in
  let poll_interval =
    Arg.(
      value
      & opt float 0.5
      & info [ "poll-interval" ] ~docv:"SECONDS"
          ~doc:"How often $(b,--follow) checks the store manifest for a new save (one stat when unchanged).")
  in
  let require_certified =
    Arg.(
      value & flag
      & info [ "require-certified" ]
          ~doc:
            "Serve (and with $(b,--follow), hot-swap to) only snapshots carrying a semantic certification \
             mark matching the chain-tip identity (see $(b,ptacli certify)).  An uncertified candidate is \
             rejected with a structured log line while the old certified snapshot keeps serving — zero \
             downtime, zero exposure to byte-perfect but semantically wrong saves.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Long-running query daemon: load a persistent store once, then answer line-delimited queries \
          (points-to, alias, leak, modref, vuln, refine, health, stats, ...) from the solved relations, \
          printing per-query latency and row counts.  Per-request budgets, an exception firewall, bounded \
          concurrency with $(b,err busy) backpressure, and SIGTERM/SIGINT graceful shutdown keep one bad \
          query or client from taking the daemon down.  $(b,--workers N) evaluates queries on a pool of \
          worker domains over the frozen store.  $(b,--follow) hot-swaps to new saves of the store with \
          zero downtime.  'help' lists the protocol.")
    Term.(
      const run $ dir $ socket $ max_clients $ workers $ req_timeout $ req_max_allocs $ req_max_nodes
      $ follow $ poll_interval $ require_certified)

(* --- route: fault-tolerant router over serve backends --------------

   [socket_shell] around [Pta.Router], the same socket lifecycle as
   `serve` (stale-socket reclaim, EINTR-safe accept, --max-clients
   with err busy, SIGTERM/SIGINT drain, one thread per client
   connection doing I/O), plus a prober thread health-checking the
   backends every --probe-interval.  All forwarding policy — retries,
   backoff + jitter, failover, circuit breakers — lives in the library
   module. *)

let route_cmd =
  let run socket backends max_clients request_timeout retries probe_interval =
    if backends = [] then begin
      Printf.eprintf "route: at least one --backend socket is required\n%!";
      exit 1
    end;
    let policy =
      {
        Pta.Router.default_policy with
        Pta.Router.request_timeout_s = (if request_timeout > 0.0 then request_timeout else 86400.0);
        Pta.Router.retries = max 0 retries;
      }
    in
    let router = Pta.Router.create ~policy backends in
    (* First probe before accepting: health/stats answered from the
       very first connection reflect a real fleet view. *)
    Pta.Router.probe_all router;
    let shutdown = ref false in
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let handler _ = shutdown := true in
    Sys.set_signal Sys.sigterm (Sys.Signal_handle handler);
    Sys.set_signal Sys.sigint (Sys.Signal_handle handler);
    let prober =
      Thread.create
        (fun () ->
          while not !shutdown do
            Thread.delay probe_interval;
            if not !shutdown then Pta.Router.probe_all router
          done)
        ()
    in
    socket_shell ~cmd:"route" ~path:socket ~max_clients ~shutdown
      ~banner:
        (Printf.sprintf "route: listening on %s over %d backend(s) (max %d clients, %d retries)" socket
           (List.length backends) max_clients (max 0 retries))
      ~busy:(fun () -> Printf.sprintf "router at capacity (%d connections); retry later" max_clients)
      ~drain:(fun () -> try Thread.join prober with _ -> ())
      (fun id ic oc ->
        let sess = Pta.Router.session ~seed:id in
        request_loop ~shutdown ic oc (fun line ->
            (match Pta.Router.handle router sess line with
            | None -> ()
            | Some r ->
              output_string oc (r.Pta.Router.rp_header ^ "\n");
              List.iter (fun l -> output_string oc (l ^ "\n")) r.Pta.Router.rp_body);
            false);
        Pta.Router.close_session sess);
    Printf.eprintf "route: shutdown\n";
    List.iter (fun l -> Printf.eprintf "route:   %s\n" l) (Pta.Router.stats_lines router);
    flush stderr
  in
  let socket =
    Arg.(
      required
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH" ~doc:"Unix domain socket the router listens on.")
  in
  let backends =
    Arg.(
      value & opt_all string []
      & info [ "backend" ] ~docv:"SOCK"
          ~doc:"A backend daemon socket (repeatable).  Queries are load-balanced round-robin across \
                healthy backends.")
  in
  let max_clients =
    Arg.(
      value
      & opt int 16
      & info [ "max-clients" ] ~docv:"N"
          ~doc:"Concurrent client connection cap; further clients get an explicit $(b,err busy) reply.")
  in
  let request_timeout =
    Arg.(
      value
      & opt float 30.0
      & info [ "request-timeout" ] ~docv:"SECONDS"
          ~doc:"Per-attempt timeout for one forwarded request (send + full reply).  0 disables.")
  in
  let retries =
    Arg.(
      value
      & opt int 3
      & info [ "retries" ] ~docv:"N"
          ~doc:"Extra attempts after the first on connect failure, mid-stream EOF, timeout, or \
                $(b,err busy): each retry backs off exponentially with jitter and prefers a different \
                backend (failover).")
  in
  let probe_interval =
    Arg.(
      value
      & opt float 1.0
      & info [ "probe-interval" ] ~docv:"SECONDS"
          ~doc:"How often the prober thread health-checks every backend; a successful probe closes an \
                open circuit breaker.")
  in
  Cmd.v
    (Cmd.info "route"
       ~doc:
         "Fault-tolerant query router over $(b,serve) backends: relays the line protocol to healthy \
          backends with round-robin load balancing, per-backend circuit breakers, bounded retry with \
          exponential backoff + jitter, and failover — clients see $(b,err unavailable) only when every \
          backend is down.  $(b,stats) and $(b,health) are answered by the router itself with \
          per-backend breaker state and snapshot identity.")
    Term.(const run $ socket $ backends $ max_clients $ request_timeout $ retries $ probe_interval)

(* --- store verify / repair --- *)

let store_group_cmd =
  let dir_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "store" ] ~docv:"DIR" ~doc:"Store directory to check (the parent of $(b,store/)).")
  in
  let print_checks checks =
    List.iter
      (fun (c : Store.check) ->
        Printf.printf "%-16s %s  %s\n" c.Store.chk_name (if c.Store.chk_ok then "ok  " else "FAIL") c.Store.chk_detail)
      checks
  in
  let healthy checks = checks <> [] && List.for_all (fun (c : Store.check) -> c.Store.chk_ok) checks in
  let verify =
    let run dir =
      let checks = Store.verify ~dir in
      print_checks checks;
      if healthy checks then print_endline "store: valid"
      else begin
        print_endline "store: INVALID ('ptacli store repair' quarantines it; re-solving rebuilds it)";
        exit 1
      end
    in
    Cmd.v
      (Cmd.info "verify"
         ~doc:
           "Health-check a persistent store: manifest parse (including its own checksum), per-file size and \
            CRC-32 against the manifest, then a full structural load.  Exit 0 when every check passes, 1 \
            otherwise.")
      Term.(const run $ dir_arg)
  in
  let repair =
    let run dir =
      let checks = Store.verify ~dir in
      if healthy checks then print_endline "store: healthy, nothing to repair"
      else begin
        print_checks checks;
        (* When the base snapshot itself is sound and only the delta
           chain is damaged, amputate the broken tail: the base and any
           earlier intact layers keep serving while the writer re-applies
           its updates. *)
        match Store.first_broken_layer checks with
        | Some n -> (
          match Store.quarantine_layers ~dir ~from_layer:n with
          | None -> print_endline "store: nothing on disk to repair"
          | Some dest ->
            Printf.printf "store: quarantined delta layers >= %d to %s\n" n dest;
            print_endline "store: base snapshot and earlier layers keep serving; re-run 'ptacli update' to re-apply")
        | None -> (
          match Store.quarantine ~dir with
          | None -> print_endline "store: nothing on disk to repair"
          | Some dest ->
            Printf.printf "store: quarantined broken store to %s\n" dest;
            print_endline "store: re-run 'ptacli analyze --save-store' or 'ptacli query --store' to rebuild")
      end
    in
    Cmd.v
      (Cmd.info "repair"
         ~doc:
           "Quarantine the broken part of a store.  When only the delta-layer chain is damaged, the broken \
            tail moves to $(b,store/layers.broken.<n>/) and the base snapshot keeps serving; otherwise the \
            whole $(b,store/) moves to $(b,store.broken.<n>/) so the next solve rebuilds it from scratch.  A \
            healthy store is left untouched.")
      Term.(const run $ dir_arg)
  in
  let compact =
    let run dir =
      match Store.compact_snapshot ~dir with
      | 0, _ -> print_endline "store: no delta layers to compact"
      | n, snapshot ->
        Printf.printf "store: compacted %d layer%s into a new base (snapshot %d)\n" n (if n = 1 then "" else "s") snapshot
    in
    Cmd.v
      (Cmd.info "compact"
         ~doc:
           "Squash the delta-layer chain into a single base snapshot (load the folded store, save it whole, \
            drop the layer files).  Readers racing the compaction see either the old chain or the new base — \
            never a mix.")
      Term.(const run $ dir_arg)
  in
  let certify =
    Cmd.v
      (Cmd.info "certify"
         ~doc:
           "Semantic twin of $(b,verify): alias for the top-level $(b,ptacli certify) verb.  $(b,verify) \
            proves the bytes on disk are the bytes that were written; $(b,certify) proves the relations \
            they encode are a genuine fixpoint of $(i,PROGRAM.jir)'s rules.  Both can disagree — a \
            CRC-clean tuple flip passes $(b,verify) and fails here.")
      Term.(const run_certification $ program_arg $ dir_arg $ budget_term $ mem_term $ max_witness_term)
  in
  let corrupt =
    let relation_arg =
      Arg.(
        required
        & opt (some string) None
        & info [ "relation" ] ~docv:"NAME" ~doc:"Stored relation to corrupt.")
    in
    let run dir relation =
      Store.corrupt_tuple_for_tests ~dir ~relation;
      Printf.printf "store: semantically corrupted relation %s (checksums freshly consistent; 'store \
                     verify' will pass, 'certify' will not)\n"
        relation
    in
    Cmd.v
      (Cmd.info "corrupt" ~docs:Cmdliner.Manpage.s_none
         ~doc:
           "Test hook: flip one tuple of a stored relation and re-save with fresh checksums — byte-level \
            $(b,verify) stays green, semantic $(b,certify) fails.  Exists so the robustness suite and CI \
            can exercise the certification path; never use on a store you care about.")
      Term.(const run $ dir_arg $ relation_arg)
  in
  Cmd.group
    (Cmd.info "store"
       ~doc:
         "Persistent store maintenance: $(b,verify) integrity across the delta chain, $(b,certify) the \
          semantics against a program, $(b,repair) by quarantine, $(b,compact) the chain into a fresh \
          base.")
    [ verify; certify; repair; compact; corrupt ]

(* --- order-search --- *)

let order_search_cmd =
  let run path budget cs =
    let p = or_die (read_program path) in
    let fg = Factgen.extract p in
    let job =
      if cs then begin
        let ci = Analyses.run_basic ~algo:Analyses.Algo3 fg in
        Pta.Order_search.Context_sensitive (Analyses.make_context fg ~ie:(Analyses.ie_tuples ci))
      end
      else Pta.Order_search.Basic Analyses.Algo2
    in
    let candidates = Pta.Order_search.search ~budget fg job in
    Printf.printf "%-40s %10s %9s\n" "domain order" "peak nodes" "seconds";
    List.iter
      (fun c ->
        Printf.printf "%-40s %10d %8.3fs\n"
          (String.concat " " c.Pta.Order_search.order)
          c.Pta.Order_search.peak_nodes c.Pta.Order_search.seconds)
      candidates
  in
  let budget = Arg.(value & opt int 6 & info [ "budget" ] ~docv:"N" ~doc:"Number of random orders to try.") in
  let cs = Arg.(value & flag & info [ "cs" ] ~doc:"Search for Algorithm 5 instead of Algorithm 2.") in
  Cmd.v
    (Cmd.info "order-search" ~doc:"Empirically search BDD domain orders (§2.4.2), best first.")
    Term.(const run $ program_arg $ budget $ cs)

(* --- datalog --- *)

(* A standalone Datalog program: parse [path], build its engine and,
   with [facts], load its input relations from that directory's
   .tuples files.  A parse or check error is one line on stderr and
   exit 1. *)
let load_dl ~options ?facts path =
  match Datalog.Parser.parse ~file:path (read_file_bytes path) with
  | exception Datalog.Parser.Parse_error e ->
    prerr_endline (Printf.sprintf "%s:%d: %s" path e.Datalog.Parser.line e.Datalog.Parser.message);
    exit 1
  | program -> (
    match Datalog.Engine.create ~options program with
    | exception Datalog.Resolve.Check_error m ->
      prerr_endline m;
      exit 1
    | eng ->
      Option.iter
        (fun dir ->
          List.iter
            (fun (name, tuples) -> Datalog.Engine.set_tuples eng name (List.map Array.of_list tuples))
            (Datalog.Tuples_io.load_inputs ~dir program))
        facts;
      (program, eng))

let datalog_cmd =
  let run path dir stats budget =
    let program, eng = load_dl ~options:(options_of_budget budget) ~facts:dir path in
    let s = solved (Datalog.Engine.solve eng) in
    Datalog.Tuples_io.save_outputs ~dir program (fun name ->
        Relation.tuples (Datalog.Engine.relation eng name));
    Printf.printf "solved in %.3fs (%d rule applications, %d rounds, %d peak nodes)\n"
      s.Datalog.Engine.solve_seconds s.Datalog.Engine.rule_applications s.Datalog.Engine.iterations
      s.Datalog.Engine.peak_live_nodes;
    if stats then print_extended_stats s;
    List.iter
      (fun (r : Datalog.Ast.rel_decl) ->
        match r.Datalog.Ast.rel_kind with
        | Datalog.Ast.Output ->
          Printf.printf "  %s: %.0f tuples\n" r.Datalog.Ast.rel_name
            (Relation.count (Datalog.Engine.relation eng r.Datalog.Ast.rel_name))
        | Datalog.Ast.Input | Datalog.Ast.Internal -> ())
      program.Datalog.Ast.relations
  in
  let dl = Arg.(required & pos 0 (some string) None & info [] ~docv:"PROGRAM.dl" ~doc:"Datalog program.") in
  let dir =
    Arg.(value & opt dir "." & info [ "facts" ] ~docv:"DIR" ~doc:"Directory of <relation>.tuples files.")
  in
  Cmd.v
    (Cmd.info "datalog" ~doc:"Standalone bddbddb: solve a Datalog program over .tuples files.")
    Term.(const run $ dl $ dir $ stats_flag $ budget_term)

(* --- explain --- *)

let explain_cmd =
  let run path algo solve budget facts_dir =
    let options = options_of_budget budget in
    let finish eng =
      if solve then ignore (Datalog.Engine.run eng);
      Format.printf "%a@?" Datalog.Engine.explain eng
    in
    if Filename.check_suffix path ".dl" then
      finish (snd (load_dl ~options ?facts:(if solve then Some facts_dir else None) path))
    else begin
      let p = or_die (read_program path) in
      let fg = Factgen.extract p in
      let eng =
        match algo with
        | Cha_nofilter -> fst (Analyses.prepare_basic ~options ~algo:Analyses.Algo1 fg)
        | Cha -> fst (Analyses.prepare_basic ~options ~algo:Analyses.Algo2 fg)
        | Otf -> fst (Analyses.prepare_basic ~options ~algo:Analyses.Algo3 fg)
        | Cs ->
          let ci = Analyses.run_basic ~options ~algo:Analyses.Algo3 fg in
          let ctx = Analyses.make_context fg ~ie:(Analyses.ie_tuples ci) in
          fst (Analyses.prepare_cs ~options fg ctx)
        | Cs_otf | One_cfa | Cs_types | Escape | Handcoded | Steens ->
          prerr_endline "ptacli: explain supports --algo cha-nofilter, cha, otf or cs";
          exit 1
      in
      finish eng
    end
  in
  let target =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"PROGRAM" ~doc:"A $(b,.jir) program (pick the analysis with $(b,--algo)) or a $(b,.dl) Datalog file.")
  in
  let algo =
    Arg.(
      value
      & opt algo_conv Cha
      & info [ "algo"; "a" ] ~docv:"ALGO"
          ~doc:"Analysis whose plans to explain (for .jir input): cha-nofilter, cha, otf or cs.")
  in
  let solve =
    Arg.(
      value
      & flag
      & info [ "solve" ]
          ~doc:"Solve first, so the report includes per-rule time and BDD-op attribution.")
  in
  let facts_dir =
    Arg.(
      value
      & opt dir "."
      & info [ "facts" ] ~docv:"DIR" ~doc:"Directory of <relation>.tuples files (for .dl input with $(b,--solve)).")
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Print the optimized query plan of every rule: physical domain assignments, join/subtract/filter \
          steps with early quantification, rename counts, the optimization pass pipeline, and (with \
          $(b,--solve)) per-rule time and BDD-op attribution.")
    Term.(const run $ target $ algo $ solve $ budget_term $ facts_dir)

(* --- gen --- *)

let gen_cmd =
  let run profile scale seed edits out =
    match Synth.Profiles.find profile with
    | None ->
      prerr_endline
        (Printf.sprintf "unknown profile %s; available: %s" profile
           (String.concat ", " (List.map (fun p -> p.Synth.Profiles.name) Synth.Profiles.all)));
      exit 1
    | Some prof ->
      let params = Synth.Profiles.params ~scale prof in
      let params = { params with Synth.Generator.seed = Option.value seed ~default:params.Synth.Generator.seed } in
      let p = Synth.Generator.generate params in
      (* Edit descriptions go to stderr: with no -o the program itself
         owns stdout. *)
      List.iter
        (fun spec_text ->
          match Synth.Edits.parse spec_text with
          | Error msg ->
            prerr_endline ("ptacli: " ^ msg);
            exit 1
          | Ok spec -> Printf.eprintf "gen: %s\n%!" (Synth.Edits.apply p spec))
        edits;
      let text = Jir.Jprinter.to_string p in
      (match out with
      | Some path ->
        (* Write-then-rename so an `update --watch` polling this path
           never reads a torn program. *)
        let tmp = path ^ ".tmp" in
        let oc = open_out tmp in
        output_string oc text;
        close_out oc;
        Sys.rename tmp path;
        Printf.printf "wrote %s: %d classes, %d methods, %d statements\n" path (Ir.num_classes p) (Ir.num_methods p)
          (Ir.stmt_count p)
      | None -> print_string text)
  in
  let profile = Arg.(required & pos 0 (some string) None & info [] ~docv:"PROFILE" ~doc:"Benchmark profile name.") in
  let scale = Arg.(value & opt float 0.04 & info [ "scale" ] ~docv:"S" ~doc:"Size scale factor.") in
  let seed = Arg.(value & opt (some int) None & info [ "seed" ] ~docv:"N" ~doc:"Override the profile seed.") in
  let edits =
    Arg.(
      value & opt_all string []
      & info [ "edit" ] ~docv:"SPEC"
          ~doc:
            "Apply a scripted edit after generation (repeatable, applied in order).  $(docv) is \
             $(i,name)[:$(i,seed)] with name one of add-method | add-alloc | remove-alloc; deterministic in \
             (program, spec), so the same flags reproduce the same edited program — the raw material for \
             exercising $(b,ptacli update).")
  in
  let out = Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output file.") in
  Cmd.v
    (Cmd.info "gen" ~doc:"Generate a synthetic benchmark program in the textual IR format.")
    Term.(const run $ profile $ scale $ seed $ edits $ out)

(* Top-level error protocol: one-line message on stderr, exit 1 for bad
   input, 2 for budget exhaustion, 3 for internal errors.  No OCaml
   backtrace reaches the user unless PTACLI_DEBUG=1, in which case the
   exception propagates untouched. *)
(* Deterministic kill injection for the CI robustness job:
   PTACLI_CRASH_AT_FS_OP=N makes the N-th announced file-system
   mutation of this process raise Faults.Crashed, simulating kill -9
   at exactly that point of the store write path (no cleanup code
   runs; temp files are left behind as a real kill would).  The
   process exits 137 — the same code a real SIGKILL would yield. *)
let () =
  match Option.bind (Sys.getenv_opt "PTACLI_CRASH_AT_FS_OP") int_of_string_opt with
  | Some n when n >= 1 ->
    let seen = ref 0 in
    Faults.set_fs_hook
      (Some
         (fun label ->
           incr seen;
           if !seen = n then raise (Faults.Crashed label)))
  | _ -> ()

let () =
  let debug = Sys.getenv_opt "PTACLI_DEBUG" = Some "1" in
  if debug then Printexc.record_backtrace true;
  let doc = "cloning-based context-sensitive pointer alias analysis using BDDs" in
  let info = Cmd.info "ptacli" ~version:"1.0" ~doc in
  let group =
    Cmd.group info
      [
        stats_cmd;
        analyze_cmd;
        query_cmd;
        update_cmd;
        certify_cmd;
        serve_cmd;
        route_cmd;
        store_group_cmd;
        order_search_cmd;
        datalog_cmd;
        explain_cmd;
        gen_cmd;
      ]
  in
  let die code msg =
    prerr_endline ("ptacli: " ^ msg);
    code
  in
  let code =
    try Cmd.eval ~catch:false group with
    | e when debug -> raise e
    | Faults.Crashed label -> die 137 (Printf.sprintf "simulated crash at fs op %S" label)
    | Solver_error.Error err -> die (Solver_error.exit_code err) (Solver_error.to_string err)
    | Bdd.Limit_exceeded reason -> die 2 ("budget exhausted: " ^ Budget.reason_to_string reason)
    | Jir.Jparser.Parse_error e -> die 1 (Printf.sprintf "line %d: %s" e.Jir.Jparser.line e.Jir.Jparser.message)
    | Datalog.Parser.Parse_error e ->
      die 1 (Printf.sprintf "line %d: %s" e.Datalog.Parser.line e.Datalog.Parser.message)
    | Datalog.Resolve.Check_error m -> die 1 m
    | Sys_error m -> die 1 m
    | Datalog.Engine.Engine_error m -> die 3 ("internal error: " ^ m)
    | Failure m -> die 3 ("internal error: " ^ m)
    | Invalid_argument m -> die 3 ("internal error: " ^ m)
  in
  exit code
