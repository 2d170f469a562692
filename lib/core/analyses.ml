module Factgen = Jir.Factgen
module Ir = Jir.Ir
module Hier = Jir.Hier
module Engine = Datalog.Engine

type result = { engine : Engine.t; stats : Engine.stats; program_text : string }
type basic = Algo1 | Algo2 | Algo3

let basic_of_tag = function
  | "algo1" -> Some Algo1
  | "algo2" -> Some Algo2
  | "algo3" -> Some Algo3
  | _ -> None

let engine_of_program ?options ?domain_order ?file fg text =
  let element_names name = Factgen.element_names fg name in
  let eng = Engine.parse_and_create ?options ~element_names ?domain_order ?file text in
  List.iter
    (fun (name, tuples) -> Engine.set_tuples eng name (List.map Array.of_list tuples))
    (Programs.input_relations fg);
  eng

let basic_text ?query ~algo fg =
  match algo with
  | Algo1 -> (Programs.algo1 ?query fg, "<algo1>")
  | Algo2 -> (Programs.algo2 ?query fg, "<algo2>")
  | Algo3 -> (Programs.algo3 ?query fg, "<algo3>")

let prepare_basic ?options ?query ?domain_order ~algo fg =
  let text, file = basic_text ?query ~algo fg in
  let engine = engine_of_program ?options ?domain_order ~file fg text in
  (engine, text)

let run_basic ?options ?query ~algo fg =
  let engine, text = prepare_basic ?options ?query ~algo fg in
  let stats = Engine.run engine in
  { engine; stats; program_text = text }

(* Budget violations can fire while the engine is still being built —
   loading input relations and installing computed inputs allocate BDD
   nodes too.  [partial_iterations = 0] then says the abort happened
   before any fixpoint round; [live_nodes = 0] means unknown (the
   manager is not reachable once creation has been abandoned). *)
let wrap_limit f =
  match f () with
  | r -> r
  | exception Bdd.Limit_exceeded reason ->
    Error (Solver_error.Budget_exhausted { Solver_error.reason; partial_iterations = 0; live_nodes = 0 })

let solve_basic ?options ?query ~algo fg =
  wrap_limit (fun () ->
      let engine, text = prepare_basic ?options ?query ~algo fg in
      match Engine.solve engine with
      | Ok stats -> Ok { engine; stats; program_text = text }
      | Error e -> Error e)

let relation r name = Engine.relation r.engine name
let tuples r name = Relation.tuples (relation r name)
let count r name = Relation.count (relation r name)

let ie_tuples r =
  List.map
    (fun t ->
      match Array.to_list t with
      | [ i; m ] -> (i, m)
      | _ -> invalid_arg "Analyses.ie_tuples: IE arity")
    (tuples r "IE")

let make_context ?max_bits fg ~ie =
  let p = fg.Factgen.program in
  let edges = Callgraph.of_ie_tuples p ie in
  Context.number ?max_bits p ~edges ~roots:(Callgraph.default_roots p)

let block_of rel name = (Relation.find_attr rel name).Relation.block

let install_context_inputs eng ctx =
  let sp = Engine.space eng in
  let iec = Engine.relation eng "IEC" in
  Relation.set_bdd iec
    (Context.iec_bdd ctx sp ~caller:(block_of iec "caller") ~invoke:(block_of iec "invoke")
       ~callee:(block_of iec "callee") ~target:(block_of iec "tgt"));
  let mc = Engine.relation eng "mC" in
  Relation.set_bdd mc (Context.mc_bdd ctx sp ~context:(block_of mc "context") ~target:(block_of mc "method"))

let prepare_cs ?options ?query fg ctx =
  let text = Programs.algo5 ?query fg ~csize:(Context.csize ctx) in
  let engine = engine_of_program ?options ~file:"<algo5>" fg text in
  install_context_inputs engine ctx;
  (engine, text)

let prepare_cs_claimed ?options ?query ?domain_order ?(otf = false) fg ~csize =
  let text, file =
    if otf then (Programs.algo5_otf ?query fg ~csize, "<algo5otf>") else (Programs.algo5 ?query fg ~csize, "<algo5>")
  in
  let engine = engine_of_program ?options ?domain_order ~file fg text in
  (engine, text)

let run_cs ?options ?query fg ctx =
  let engine, text = prepare_cs ?options ?query fg ctx in
  let stats = Engine.run engine in
  { engine; stats; program_text = text }

let solve_cs ?options ?query fg ctx =
  wrap_limit (fun () ->
      let engine, text = prepare_cs ?options ?query fg ctx in
      match Engine.solve engine with
      | Ok stats -> Ok { engine; stats; program_text = text }
      | Error e -> Error e)

let run_cs_with ?options ?query fg ~csize ~iec ~mc =
  let text = Programs.algo5 ?query fg ~csize in
  let engine = engine_of_program ?options ~file:"<algo5>" fg text in
  Engine.set_tuples engine "IEC" (List.map (fun (a, b, c, d) -> [| a; b; c; d |]) iec);
  Engine.set_tuples engine "mC" (List.map (fun (a, b) -> [| a; b |]) mc);
  let stats = Engine.run engine in
  { engine; stats; program_text = text }

let run_1cfa ?options ?query fg =
  let p = fg.Factgen.program in
  let k = Kcfa.number p ~edges:(Callgraph.cha_edges p) ~roots:(Callgraph.default_roots p) in
  (run_cs_with ?options ?query fg ~csize:(Kcfa.csize k) ~iec:(Kcfa.iec_tuples k) ~mc:(Kcfa.mc_tuples k), k)

let run_cs_otf ?options ?query fg =
  (* Conservative numbering over the CHA call graph. *)
  let p = fg.Factgen.program in
  let ctx = Context.number p ~edges:(Callgraph.cha_edges p) ~roots:(Callgraph.default_roots p) in
  let text = Programs.algo5_otf ?query fg ~csize:(Context.csize ctx) in
  let engine = engine_of_program ?options ~file:"<algo5otf>" fg text in
  install_context_inputs engine ctx;
  let stats = Engine.run engine in
  ({ engine; stats; program_text = text }, ctx)

let run_cs_types ?options ?query fg ctx =
  let text = Programs.algo6 ?query fg ~csize:(Context.csize ctx) in
  let engine = engine_of_program ?options ~file:"<algo6>" fg text in
  install_context_inputs engine ctx;
  let stats = Engine.run engine in
  { engine; stats; program_text = text }

(* --- Algorithm 7 driver --- *)

type thread_info = { n_contexts : int; thread_sites : (Ir.heap_id * int * int) list }

(* The destination variable of each allocation site. *)
let heap_dst_vars p =
  let dst = Array.make (Ir.num_heaps p) (-1) in
  Ir.iter_methods p (fun m ->
      List.iter
        (fun (s : Ir.stmt) ->
          match s with
          | Ir.New { dst = d; heap; _ } -> dst.(heap) <- d
          | Ir.Assign _ | Ir.Cast _ | Ir.Load _ | Ir.Store _ | Ir.Load_static _ | Ir.Store_static _ | Ir.Invoke _
          | Ir.Array_load _ | Ir.Array_store _ | Ir.Throw _ | Ir.Catch _ | Ir.Return _ | Ir.Sync _ -> ())
        m.Ir.m_body);
  dst

let run_thread_escape ?options ?query fg =
  let p = fg.Factgen.program in
  (* Call graph without the thread-start matching: every thread context
     is rooted only at its own run() clone. *)
  let edges = Callgraph.cha_edges ~thread_start:false p in
  let dst_of = heap_dst_vars p in
  let run_of h = Hier.run_method p (Ir.heap p h).Ir.h_cls in
  (* Context id allocation: 0 global, 1 startup thread, then pairs per
     discovered thread-creation site. *)
  let site_contexts : (Ir.heap_id, int * int) Hashtbl.t = Hashtbl.create 8 in
  let next_ctx = ref 2 in
  let context_reaches = ref [] in
  (* (context id, reachable-method set) in discovery order *)
  let pending = Queue.create () in
  Queue.add (1, Ir.entries p) pending;
  let discovered_order = ref [] in
  while not (Queue.is_empty pending) do
    let c, roots = Queue.pop pending in
    let reach = Callgraph.reachable_methods p edges ~roots in
    context_reaches := (c, reach) :: !context_reaches;
    discovered_order := c :: !discovered_order;
    (* New thread sites visible from this context spawn contexts. *)
    Ir.iter_heaps p (fun h ->
        if reach.(h.Ir.h_method) && not (Hashtbl.mem site_contexts h.Ir.h_id) then
          match run_of h.Ir.h_id with
          | Some run ->
            let ca = !next_ctx and cb = !next_ctx + 1 in
            next_ctx := !next_ctx + 2;
            Hashtbl.add site_contexts h.Ir.h_id (ca, cb);
            (* Both clones of the thread share one reachable set; give
               each its own context id. *)
            Queue.add (ca, [ run ]) pending;
            Queue.add (cb, [ run ]) pending
          | None -> ())
  done;
  let n_contexts = !next_ctx in
  let thread_sites = Hashtbl.fold (fun h (a, b) acc -> (h, a, b) :: acc) site_contexts [] in
  let thread_sites = List.sort compare thread_sites in
  (* HT: non-thread allocation sites per context. *)
  let ht = ref [] in
  let vp0t = ref [] in
  List.iter
    (fun (c, reach) ->
      Ir.iter_heaps p (fun h ->
          if reach.(h.Ir.h_method) then
            match Hashtbl.find_opt site_contexts h.Ir.h_id with
            | None -> ht := [ c; h.Ir.h_id ] :: !ht
            | Some (ca, cb) ->
              (* The creating context's destination variable points to
                 both clones of the new thread object. *)
              let d = dst_of.(h.Ir.h_id) in
              if d >= 0 then begin
                vp0t := [ c; d; ca; h.Ir.h_id ] :: !vp0t;
                vp0t := [ c; d; cb; h.Ir.h_id ] :: !vp0t
              end))
    !context_reaches;
  (* run() receiver seeding: each clone's `this` points to its own
     thread object. *)
  List.iter
    (fun (h, ca, cb) ->
      match run_of h with
      | Some run -> (
        match (Ir.meth p run).Ir.m_formals with
        | this :: _ ->
          vp0t := [ ca; this; ca; h ] :: !vp0t;
          vp0t := [ cb; this; cb; h ] :: !vp0t
        | [] -> ())
      | None -> ())
    thread_sites;
  (* The global object lives in the distinguished context 0 and is
     visible from every thread context. *)
  let global_v = Ir.global_var p in
  let global_h = Factgen.global_heap fg in
  for c = 1 to n_contexts - 1 do
    vp0t := [ c; global_v; 0; global_h ] :: !vp0t
  done;
  let text = Programs.algo7 ?query fg ~csize:(max 2 n_contexts) in
  let engine = engine_of_program ?options ~file:"<algo7>" fg text in
  Engine.set_tuples engine "HT" (List.map Array.of_list !ht);
  Engine.set_tuples engine "vP0T" (List.map Array.of_list !vp0t);
  let stats = Engine.run engine in
  ({ engine; stats; program_text = text }, { n_contexts; thread_sites })

type escape_counts = { captured_sites : int; escaped_sites : int; needed_syncs : int; unneeded_syncs : int }

let escape_counts fg r =
  let distinct idx rel =
    let seen = Hashtbl.create 64 in
    List.iter (fun t -> Hashtbl.replace seen t.(idx) ()) (tuples r rel);
    seen
  in
  let escaped_h = distinct 1 "escaped" in
  let captured_h = distinct 1 "captured" in
  (* A site escaped under any context counts as escaped. *)
  Hashtbl.iter (fun h () -> Hashtbl.remove captured_h h) escaped_h;
  let needed_v = distinct 1 "neededSyncs" in
  let sync_vars = Hashtbl.create 64 in
  List.iter
    (fun t ->
      match t with
      | [ v ] -> Hashtbl.replace sync_vars v ()
      | _ -> ())
    (Factgen.relation fg "syncs");
  let total_syncs = Hashtbl.length sync_vars in
  {
    captured_sites = Hashtbl.length captured_h;
    escaped_sites = Hashtbl.length escaped_h;
    needed_syncs = Hashtbl.length needed_v;
    unneeded_syncs = total_syncs - Hashtbl.length needed_v;
  }

(* --- Graceful-degradation ladder --- *)

type rung = Rung_cs | Rung_ci | Rung_steens

type fallback = {
  rung : rung;
  result : result option;
  steens : Steensgaard.result option;
  vp : (int * int) list;
  failures : (rung * Solver_error.t) list;
}

let rung_name = function
  | Rung_cs -> "context-sensitive (Algorithm 5)"
  | Rung_ci -> "context-insensitive, type-filtered (Algorithm 2)"
  | Rung_steens -> "unification-based (Steensgaard)"

(* Degrade only when the solver ran out of resources; a user-requested
   cancellation means stop, and bad input or an internal error would
   fail identically on every rung. *)
let degradable = function
  | Solver_error.Budget_exhausted { Solver_error.reason = Budget.Cancelled; _ } -> false
  | Solver_error.Budget_exhausted _ -> true
  | Solver_error.Bad_input _ | Solver_error.Internal _ -> false

let vp_pairs ~v ~h ts = List.sort_uniq compare (List.map (fun (t : int array) -> (t.(v), t.(h))) ts)

let solve_with_fallback ?(options = Engine.default_options) ?budget ?query fg =
  (* One budget governs the whole ladder: a deadline is absolute, so
     time spent on a failed precise attempt is not granted again to the
     fallback; node/allocation limits are per-manager and each rung
     builds a fresh manager, so they reset naturally. *)
  let options =
    match budget with Some _ -> { options with Engine.budget } | None -> options
  in
  let cs_attempt () =
    (* The precise rung is the paper's full pipeline: discover the call
       graph on the fly (Algorithm 3), number contexts (Algorithm 4),
       then solve context-sensitively (Algorithm 5). *)
    match solve_basic ~options ~algo:Algo3 fg with
    | Error e -> Error e
    | Ok r3 -> solve_cs ~options ?query fg (make_context fg ~ie:(ie_tuples r3))
  in
  (* Last rung: union-find, near-linear, no BDDs — effectively immune
     to the budgets that exhausted the rungs above. *)
  let steens_rung failures =
    let s = Steensgaard.run fg in
    Ok
      { rung = Rung_steens; result = None; steens = Some s; vp = List.sort_uniq compare (Steensgaard.vp_tuples s); failures }
  in
  let ci_rung failures =
    match solve_basic ~options ?query ~algo:Algo2 fg with
    | Ok r -> Ok { rung = Rung_ci; result = Some r; steens = None; vp = vp_pairs ~v:0 ~h:1 (tuples r "vP"); failures }
    | Error e when degradable e -> steens_rung (failures @ [ (Rung_ci, e) ])
    | Error e -> Error e
  in
  match cs_attempt () with
  | Ok r -> Ok { rung = Rung_cs; result = Some r; steens = None; vp = vp_pairs ~v:1 ~h:2 (tuples r "vPC"); failures = [] }
  | Error e when degradable e -> ci_rung [ (Rung_cs, e) ]
  | Error e -> Error e

type refinement_ratios = { population : float; multi_pct : float; refinable_pct : float }

let refinement_ratios count ~per_clone =
  let active, multi, refinable =
    if per_clone then ("activeC", "multiC", "refinableC") else ("activeV", "multiT", "refinable")
  in
  let population = count active in
  let pct x = if population = 0.0 then 0.0 else 100.0 *. x /. population in
  { population; multi_pct = pct (count multi); refinable_pct = pct (count refinable) }
