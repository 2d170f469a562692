type options = {
  semi_naive : bool;
  hoist : bool;
  greedy_blocks : bool;
  reorder_joins : bool;
  pushdown : bool;
  gc_interval : int;
  budget : Budget.t option;
  page_bits : int option; (* arena page size override, log2 slots *)
  mem_cap_bytes : int option; (* resident node-page byte cap; spill to a temp file past it *)
}

let default_options =
  {
    semi_naive = true;
    hoist = true;
    greedy_blocks = true;
    reorder_joins = false;
    pushdown = true;
    gc_interval = 256;
    budget = None;
    page_bits = None;
    mem_cap_bytes = None;
  }

let toggles_of_options o =
  {
    Ralg.naming = o.greedy_blocks;
    reorder = o.reorder_joins;
    pushdown = o.pushdown;
    semi_naive = o.semi_naive;
    hoist = o.hoist;
  }

type rule_stat = {
  rs_rule : Ast.rule;
  rs_applications : int;
  rs_seconds : float;
  rs_cache_lookups : int;
}

type stats = {
  rule_applications : int;
  iterations : int;
  strata : int;
  peak_live_nodes : int;
  solve_seconds : float;
  gcs : int;
  op_cache : (string * int * int) list;
  rule_stats : rule_stat list;
  arena : Bdd.arena_stats; (* pager counters at solve end *)
}

let cache_hit_rate s =
  let h, m = List.fold_left (fun (h, m) (_, h', m') -> (h + h', m + m')) (0, 0) s.op_cache in
  if h + m = 0 then 0.0 else float_of_int h /. float_of_int (h + m)

exception Engine_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Engine_error s)) fmt

(* A plan source compiled to its BDD pipeline: select constants, equate
   duplicate-variable positions, quantify dead storage blocks, rename
   surviving storage blocks to the rule variables' blocks.  When the
   source is marked hoistable, the result is cached while the relation's
   version is unchanged (the paper's loop-invariant detection). *)
type prepared = {
  p_rel : Relation.t;
  mutable p_selects : Bdd.t; (* conjunction of constant minterms, true if none *)
  mutable p_dup_eqs : Bdd.t list;
  mutable p_away : Bdd.t; (* cube *)
  p_map : Bdd.varmap option;
  p_hoist : bool;
  p_cache_full : (int * Bdd.t) ref; (* version marker -1 = invalid *)
  p_cache_delta : (int * int * Bdd.t) ref;
      (* (delta BDD handle, gc stamp, result); handle -1 = invalid.  The
         handle is only a valid key while no GC has run since it was
         stored — a collection may free the old delta and let a later
         [mk] reuse its handle for a different function. *)
}

type step_kind = SJoin of prepared | SConstrain of Bdd.t | SSubtract of prepared
type step = { mutable kind : step_kind; mutable project_after : Bdd.t (* cube *) }

type head_spec = {
  h_rel : Relation.t;
  h_map : Bdd.varmap option;
  mutable h_eqs : Bdd.t list;
  mutable h_consts : Bdd.t;
}

(* A compiled plan: the symbolic {!Ralg.plan} plus its BDD realisation
   and cumulative per-rule evaluation counters. *)
type plan = {
  p_ir : Ralg.plan;
  steps : step array;
  head : head_spec;
  delta_positions : int list; (* = p_ir.deltas: SJoin indices evaluated semi-naively *)
  mutable ev_applications : int;
  mutable ev_seconds : float;
  mutable ev_lookups : int;
}

type t = {
  res : Resolve.t;
  sp : Space.t;
  opts : options;
  ir_plans : (Ralg.plan list * Ralg.plan list) list; (* (once, loop) per stratum *)
  rels : (string, Relation.t) Hashtbl.t;
  deltas : (string, Bdd.t ref) Hashtbl.t;
  pendings : (string, Bdd.t ref) Hashtbl.t;
  strata : Stratify.stratum list;
  mutable plans : (plan list * plan list) list; (* compiled ir_plans *)
  mutable plan_consts : Bdd.t list; (* rooted plan-time constants *)
  mutable rule_apps : int;
  mutable stats : stats option;
  mutable budget : Budget.t option;
  mutable gc_threshold : int;
      (* capped runs only (0 = off): collect whenever the node table
         outgrows this many bytes.  Starts at the memory cap — while
         live data fits, collections keep the table resident and the
         pager idle; once live data itself exceeds the cap, the
         threshold backs off to twice the post-collection size so the
         solver pages rather than collecting after every rule. *)
  mutable cur_iterations : int; (* rounds completed by the current/last [run] *)
  incr_fresh : (string, Bdd.t) Hashtbl.t;
      (* per-relation union of tuples that are new this run — seeded
         with the external input deltas by [run_incremental] and grown
         by every commit while [track_fresh] is on.  Downstream strata
         read it to decide which body positions changed. *)
  mutable track_fresh : bool;
}

let space t = t.sp
let ir_plans t = t.ir_plans

let domain t name =
  match List.assoc_opt name t.res.Resolve.domains with
  | Some d -> d
  | None -> fail "unknown domain %s" name

let relation t name =
  match Hashtbl.find_opt t.rels name with
  | Some r -> r
  | None -> fail "unknown relation %s" name

let relations t = Hashtbl.fold (fun _ r acc -> r :: acc) t.rels []

(* The program's interface: inputs (including computed inputs a driver
   installed, e.g. IEC/mC) and outputs, in declaration order — the
   relations a persistent store saves.  Internal relations are working
   state of the solve and are excluded. *)
let exported_relations t =
  List.filter_map
    (fun (decl : Ast.rel_decl) ->
      match decl.Ast.rel_kind with
      | Ast.Input | Ast.Output -> Some (relation t decl.Ast.rel_name)
      | Ast.Internal -> None)
    t.res.Resolve.program.Ast.relations

(* Every declared relation, internals included, in declaration order.
   An update-capable store saves these: an incremental re-solve needs
   the previous run's internal working relations (e.g. [assign]) as its
   starting point, not just the interface. *)
let declared_relations t =
  List.map (fun (decl : Ast.rel_decl) -> relation t decl.Ast.rel_name) t.res.Resolve.program.Ast.relations

let input_relations t =
  List.filter_map
    (fun (decl : Ast.rel_decl) ->
      match decl.Ast.rel_kind with
      | Ast.Input -> Some (relation t decl.Ast.rel_name)
      | Ast.Output | Ast.Internal -> None)
    t.res.Resolve.program.Ast.relations

(* Relations read under negation (subtracted) by some plan.  Additions
   to them can retract derived facts, so an incremental driver must
   fall back to a cold solve when any of these changed. *)
let negated_relations t =
  let seen = Hashtbl.create 4 in
  List.iter
    (fun (once, loop) ->
      List.iter
        (fun (ir : Ralg.plan) ->
          Array.iter
            (fun (st : Ralg.step) ->
              match st.Ralg.op with
              | Ralg.Subtract s -> Hashtbl.replace seen s.Ralg.src_rel ()
              | Ralg.Join _ | Ralg.Constrain _ -> ())
            ir.Ralg.steps)
        (once @ loop))
    t.ir_plans;
  Hashtbl.fold (fun name () acc -> name :: acc) seen []

let set_tuples t name tuples =
  let r = relation t name in
  Relation.set_bdd r Bdd.bdd_false;
  Relation.set_tuples r tuples

let add_tuple t name tu = Relation.add_tuple (relation t name) tu

(* --- Compilation: Ralg plans to BDD pipelines --- *)

let var_block t (ir : Ralg.plan) v =
  let dname = List.assoc v ir.Ralg.var_doms in
  let d = List.assoc dname t.res.Resolve.domains in
  Space.instance t.sp d (List.assoc v ir.Ralg.binding)

let compile_source t (ir : Ralg.plan) (s : Ralg.source) =
  let rel = relation t s.Ralg.src_rel in
  let attrs = Array.of_list (Relation.attrs rel) in
  let man_consts = ref Bdd.bdd_true in
  let dup_eqs = ref [] in
  let away = ref [] in
  let map_pairs = ref [] in
  Array.iteri
    (fun i col ->
      let blk = attrs.(i).Relation.block in
      match col with
      | Ralg.Cconst (v, _) ->
        man_consts := Bdd.mk_and (Space.man t.sp) !man_consts (Space.const t.sp blk v);
        away := blk :: !away
      | Ralg.Cwild -> away := blk :: !away
      | Ralg.Cvar v ->
        let target = var_block t ir v in
        if target != blk then map_pairs := (blk, target) :: !map_pairs
      | Ralg.Cdup fp ->
        dup_eqs := Space.equal_blocks t.sp attrs.(fp).Relation.block blk :: !dup_eqs;
        away := blk :: !away)
    s.Ralg.src_cols;
  {
    p_rel = rel;
    p_selects = !man_consts;
    p_dup_eqs = !dup_eqs;
    p_away = Space.cube_of_blocks t.sp !away;
    p_map = (if !map_pairs = [] then None else Some (Space.renaming t.sp !map_pairs));
    p_hoist = s.Ralg.src_hoist;
    p_cache_full = ref (-1, Bdd.bdd_false);
    p_cache_delta = ref (-1, -1, Bdd.bdd_false);
  }

let compile_constr t (ir : Ralg.plan) (c : Ralg.constr) =
  let man = Space.man t.sp in
  match c with
  | Ralg.Cmp_vv { left; op; right } -> (
    let base = Space.equal_blocks t.sp (var_block t ir left) (var_block t ir right) in
    match op with
    | Ast.Eq -> base
    | Ast.Neq -> Bdd.mk_not man base)
  | Ralg.Cmp_vc { var; op; value; _ } -> (
    let base = Space.const t.sp (var_block t ir var) value in
    match op with
    | Ast.Eq -> base
    | Ast.Neq -> Bdd.mk_not man base)

let compile_plan t (ir : Ralg.plan) =
  let steps =
    Array.map
      (fun (st : Ralg.step) ->
        let kind =
          match st.Ralg.op with
          | Ralg.Join s -> SJoin (compile_source t ir s)
          | Ralg.Subtract s -> SSubtract (compile_source t ir s)
          | Ralg.Constrain c -> SConstrain (compile_constr t ir c)
        in
        { kind; project_after = Space.cube_of_blocks t.sp (List.map (var_block t ir) st.Ralg.quantify) })
      ir.Ralg.steps
  in
  (* Head: rename var blocks to first-position storage, equate duplicate
     positions, select constants. *)
  let head_rel = relation t ir.Ralg.head.Ralg.hd_rel in
  let head_attrs = Array.of_list (Relation.attrs head_rel) in
  let h_map_pairs = ref [] in
  let h_eqs = ref [] in
  let h_consts = ref Bdd.bdd_true in
  Array.iteri
    (fun i col ->
      let blk = head_attrs.(i).Relation.block in
      match col with
      | Ralg.Cconst (v, _) -> h_consts := Bdd.mk_and (Space.man t.sp) !h_consts (Space.const t.sp blk v)
      | Ralg.Cwild -> fail "wildcard in head"
      | Ralg.Cvar v ->
        let src = var_block t ir v in
        if src != blk then h_map_pairs := (src, blk) :: !h_map_pairs
      | Ralg.Cdup fp -> h_eqs := Space.equal_blocks t.sp head_attrs.(fp).Relation.block blk :: !h_eqs)
    ir.Ralg.head.Ralg.hd_cols;
  let head =
    {
      h_rel = head_rel;
      h_map = (if !h_map_pairs = [] then None else Some (Space.renaming t.sp !h_map_pairs));
      h_eqs = !h_eqs;
      h_consts = !h_consts;
    }
  in
  (* Gather plan constants for GC rooting. *)
  let consts = ref [ head.h_consts ] in
  List.iter (fun e -> consts := e :: !consts) head.h_eqs;
  Array.iter
    (fun st ->
      consts := st.project_after :: !consts;
      match st.kind with
      | SJoin p | SSubtract p ->
        consts := p.p_selects :: p.p_away :: !consts;
        List.iter (fun e -> consts := e :: !consts) p.p_dup_eqs
      | SConstrain c -> consts := c :: !consts)
    steps;
  t.plan_consts <- !consts @ t.plan_consts;
  { p_ir = ir; steps; head; delta_positions = ir.Ralg.deltas; ev_applications = 0; ev_seconds = 0.0; ev_lookups = 0 }

(* --- Creation --- *)

let create ?(options = default_options) ?element_names ?domain_order (program : Ast.program) =
  let res = Resolve.resolve ?element_names program in
  let strata = Stratify.strata program in
  (* Lower and optimize every rule first — purely symbolic, no BDD
     work, so plan-time failures surface before any allocation. *)
  let toggles = toggles_of_options options in
  let ir_plans =
    try
      List.map
        (fun (st : Stratify.stratum) ->
          let opt r = Ralg.optimize res ~toggles ~stratum_preds:st.Stratify.preds (Ralg.lower res r) in
          (List.map opt st.Stratify.once_rules, List.map opt st.Stratify.loop_rules))
        strata
    with Ralg.Plan_error { message; pos } -> (
      match pos with
      | Some p -> fail "%a: %s" Ast.pp_pos p message
      | None -> fail "%s" message)
  in
  let sp =
    Space.create ~node_hint:(1 lsl 16) ~cache_bits:18 ?page_bits:options.page_bits ?mem_cap_bytes:options.mem_cap_bytes ()
  in
  let t =
    {
      res;
      sp;
      opts = options;
      ir_plans;
      rels = Hashtbl.create 16;
      deltas = Hashtbl.create 8;
      pendings = Hashtbl.create 8;
      strata;
      plans = [];
      plan_consts = [];
      rule_apps = 0;
      stats = None;
      budget = options.budget;
      gc_threshold = Option.value options.mem_cap_bytes ~default:0;
      cur_iterations = 0;
      incr_fresh = Hashtbl.create 8;
      track_fresh = false;
    }
  in
  Bdd.set_budget (Space.man sp) options.budget;
  (* Physical blocks: one interleaved group per domain, sized by the
     demand of the relations' storage layouts and the plans' bindings. *)
  let demand = Ralg.instance_demand res (List.concat_map (fun (once, loop) -> once @ loop) ir_plans) in
  let order =
    (* An explicit argument replaces the program's .bddvarorder
       directive. *)
    let program = if domain_order = None then program else { program with Ast.var_order = domain_order } in
    Option.iter
      (fun names ->
        List.iter (fun n -> if not (List.mem_assoc n res.Resolve.domains) then fail "domain_order: unknown domain %s" n) names;
        if List.length (List.sort_uniq compare names) <> List.length names then fail "domain_order: a domain is named twice")
      program.Ast.var_order;
    Ast.domain_order program
  in
  List.iter
    (fun dname ->
      let d = List.assoc dname res.Resolve.domains in
      let n = Option.value (Hashtbl.find_opt demand dname) ~default:1 in
      ignore (Space.alloc_interleaved sp d n))
    order;
  (* Relations. *)
  List.iter
    (fun (decl : Ast.rel_decl) ->
      let p = Resolve.pred res decl.Ast.rel_name in
      let slots = Ralg.storage_slots res decl.Ast.rel_name in
      let attrs =
        List.mapi
          (fun i (aname, _) ->
            let _, inst = slots.(i) in
            { Relation.attr_name = aname; block = Space.instance sp p.Resolve.doms.(i) inst })
          decl.Ast.rel_attrs
      in
      Hashtbl.add t.rels decl.Ast.rel_name (Relation.make sp ~name:decl.Ast.rel_name attrs))
    program.Ast.relations;
  (* Delta/pending accumulators for recursive predicates. *)
  List.iter
    (fun (st : Stratify.stratum) ->
      if st.Stratify.loop_rules <> [] then
        List.iter
          (fun p ->
            if not (Hashtbl.mem t.deltas p) then begin
              let d = ref Bdd.bdd_false and pe = ref Bdd.bdd_false in
              Bdd.add_root (Space.man sp) d;
              Bdd.add_root (Space.man sp) pe;
              Hashtbl.add t.deltas p d;
              Hashtbl.add t.pendings p pe
            end)
          st.Stratify.preds)
    strata;
  (* Compile the IR plans to BDD pipelines. *)
  t.plans <- List.map (fun (once, loop) -> (List.map (compile_plan t) once, List.map (compile_plan t) loop)) ir_plans;
  (* Root plan constants and prepared caches. *)
  let full_refs = ref [] in
  let delta_refs = ref [] in
  List.iter
    (fun (once, loop) ->
      List.iter
        (fun plan ->
          Array.iter
            (fun stp ->
              match stp.kind with
              | SJoin p | SSubtract p ->
                full_refs := p.p_cache_full :: !full_refs;
                delta_refs := p.p_cache_delta :: !delta_refs
              | SConstrain _ -> ())
            plan.steps)
        (once @ loop))
    t.plans;
  Bdd.add_root_fn (Space.man sp) (fun () ->
      t.plan_consts
      @ Hashtbl.fold (fun _ b acc -> b :: acc) t.incr_fresh []
      @ List.map (fun r -> snd !r) !full_refs
      @ List.map
          (fun r ->
            let _, _, b = !r in
            b)
          !delta_refs);
  (* Collections renumber every surviving node.  The root
     function above only marks; this hook rewrites every handle the
     engine stores outside registered refs.  The delta cache keys on a
     pre-GC handle, so it is invalidated rather than remapped (its
     gc-stamp guard would reject it anyway). *)
  Bdd.on_remap (Space.man sp) (fun mapf ->
      t.plan_consts <- List.map mapf t.plan_consts;
      let fresh' = Hashtbl.fold (fun k b acc -> (k, mapf b) :: acc) t.incr_fresh [] in
      List.iter (fun (k, b) -> Hashtbl.replace t.incr_fresh k b) fresh';
      let remap_prepared p =
        p.p_selects <- mapf p.p_selects;
        p.p_dup_eqs <- List.map mapf p.p_dup_eqs;
        p.p_away <- mapf p.p_away;
        (let ver, b = !(p.p_cache_full) in
         if ver >= 0 then p.p_cache_full := (ver, mapf b));
        p.p_cache_delta := (-1, -1, Bdd.bdd_false)
      in
      List.iter
        (fun (once, loop) ->
          List.iter
            (fun plan ->
              Array.iter
                (fun stp ->
                  stp.project_after <- mapf stp.project_after;
                  match stp.kind with
                  | SJoin p | SSubtract p -> remap_prepared p
                  | SConstrain c -> stp.kind <- SConstrain (mapf c))
                plan.steps;
              plan.head.h_eqs <- List.map mapf plan.head.h_eqs;
              plan.head.h_consts <- mapf plan.head.h_consts)
            (once @ loop))
        t.plans);
  t

let parse_and_create ?options ?element_names ?domain_order ?file src =
  create ?options ?element_names ?domain_order (Parser.parse ?file src)

(* --- Evaluation --- *)

let prepare t prep ~delta =
  let man = Space.man t.sp in
  let compute source_bdd =
    let b = ref source_bdd in
    if prep.p_selects <> Bdd.bdd_true then b := Bdd.mk_and man !b prep.p_selects;
    List.iter (fun eq -> b := Bdd.mk_and man !b eq) prep.p_dup_eqs;
    if prep.p_away <> Bdd.bdd_true then b := Bdd.exist man ~cube:prep.p_away !b;
    (match prep.p_map with
    | Some map -> b := Bdd.replace man map !b
    | None -> ());
    !b
  in
  match delta with
  | Some d ->
    (* Delta sources have no version counter; key the cache on the
       delta BDD handle itself (stable within an iteration because the
       caller's delta only changes between iterations), guarded by the
       GC stamp since a collection can free the old delta and reuse its
       handle for a different function. *)
    let handle = (d : Bdd.t :> int) in
    let gcs = Bdd.gc_count man in
    let ch, cgc, cb = !(prep.p_cache_delta) in
    if prep.p_hoist && ch = handle && cgc = gcs then cb
    else begin
      let b = compute d in
      prep.p_cache_delta := (handle, gcs, b);
      b
    end
  | None ->
    let version = Relation.version prep.p_rel in
    let cached_version, cached = !(prep.p_cache_full) in
    if prep.p_hoist && cached_version = version then cached
    else begin
      let b = compute (Relation.bdd prep.p_rel) in
      prep.p_cache_full := (version, b);
      b
    end

let eval_plan t plan ~delta_at =
  let man = Space.man t.sp in
  let current = ref Bdd.bdd_true in
  let started = ref false in
  let i = ref 0 in
  let n = Array.length plan.steps in
  (* Incremental runs only: the delta carried into an application is
     typically tiny, so pre-constrain the pipeline with the prepared
     delta operand from the very first step — the joins in front of the
     delta position then stay delta-sized instead of full-sized.  This
     is sound: the conjunct's variables are those of the atom at [pos],
     whose last use is at or after [pos], so no earlier step's
     [project_after] cube can quantify them away prematurely.  Cold
     semi-naive rounds keep the planner's order untouched: their early
     rounds carry near-full deltas, where this seed would hurt. *)
  (match delta_at with
  | Some (pos, d) when t.track_fresh && pos > 0 -> (
    match plan.steps.(pos).kind with
    | SJoin prep ->
      current := prepare t prep ~delta:(Some d);
      started := true
    | SConstrain _ | SSubtract _ -> ())
  | _ -> ());
  while !i < n && (not !started || !current <> Bdd.bdd_false) do
    let stp = plan.steps.(!i) in
    (match stp.kind with
    | SJoin prep ->
      let g =
        prepare t prep
          ~delta:(match delta_at with Some (pos, d) when pos = !i -> Some d | _ -> None)
      in
      if !started then current := Bdd.relprod man ~cube:stp.project_after !current g
      else begin
        current := Bdd.exist man ~cube:stp.project_after g;
        started := true
      end
    | SConstrain c ->
      current := Bdd.mk_and man !current c;
      current := Bdd.exist man ~cube:stp.project_after !current;
      started := true
    | SSubtract prep ->
      let g = prepare t prep ~delta:None in
      current := Bdd.mk_diff man !current g;
      current := Bdd.exist man ~cube:stp.project_after !current;
      started := true);
    incr i
  done;
  if !started && !current = Bdd.bdd_false then Bdd.bdd_false
  else begin
    let b = ref !current in
    (match plan.head.h_map with
    | Some map -> b := Bdd.replace man map !b
    | None -> ());
    List.iter (fun eq -> b := Bdd.mk_and man !b eq) plan.head.h_eqs;
    if plan.head.h_consts <> Bdd.bdd_true then b := Bdd.mk_and man !b plan.head.h_consts;
    !b
  end

let set_budget t b =
  t.budget <- b;
  Bdd.set_budget (Space.man t.sp) b

(* Cooperative cancellation/deadline point between rule applications.
   The node-count and allocation limits are enforced inside [Bdd.mk]
   itself (amortized); here we only poll the flag and the clock, which
   a long cache-hit-heavy stretch would otherwise never reach. *)
let check_budget t =
  match t.budget with
  | None -> ()
  | Some b -> (
    match Budget.check_interrupt b with
    | Some reason -> raise (Bdd.Limit_exceeded reason)
    | None -> ())

let maybe_gc t =
  t.rule_apps <- t.rule_apps + 1;
  check_budget t;
  let man = Space.man t.sp in
  if t.opts.gc_interval > 0 && t.rule_apps mod t.opts.gc_interval = 0 then Bdd.gc man
  else if t.gc_threshold > 0 && Bdd.table_bytes man > t.gc_threshold then begin
    (* Capped run outgrew its threshold: compact now — dead nodes are
       the bulk of an uncollected table, and the level-clustered
       survivors keep the pager's working set tight.  If live data
       itself no longer fits the cap, back the threshold off so
       collections stay amortized against real growth. *)
    Bdd.gc man;
    let cap = Option.value t.opts.mem_cap_bytes ~default:0 in
    t.gc_threshold <- max cap (2 * Bdd.table_bytes man)
  end

(* Union the result into the head; returns whether new tuples arrived. *)
let commit t plan result ~track_delta =
  let man = Space.man t.sp in
  let head = plan.head.h_rel in
  let fresh = Bdd.mk_diff man result (Relation.bdd head) in
  if fresh = Bdd.bdd_false then false
  else begin
    Relation.set_bdd head (Bdd.mk_or man (Relation.bdd head) fresh);
    if track_delta then begin
      let p = Hashtbl.find t.pendings (Relation.name head) in
      p := Bdd.mk_or man !p fresh
    end;
    if t.track_fresh then begin
      let name = Relation.name head in
      let cur = Option.value (Hashtbl.find_opt t.incr_fresh name) ~default:Bdd.bdd_false in
      Hashtbl.replace t.incr_fresh name (Bdd.mk_or man cur fresh)
    end;
    true
  end

(* One rule application (evaluate + commit), attributing wall time and
   BDD op-cache lookups to the plan's cumulative counters. *)
let apply t plan ~delta_at ~track_delta =
  let man = Space.man t.sp in
  let t0 = Unix.gettimeofday () in
  let h0, m0 = Bdd.cache_stats man in
  let b = eval_plan t plan ~delta_at in
  let changed = commit t plan b ~track_delta in
  let h1, m1 = Bdd.cache_stats man in
  plan.ev_applications <- plan.ev_applications + 1;
  plan.ev_seconds <- plan.ev_seconds +. (Unix.gettimeofday () -. t0);
  plan.ev_lookups <- plan.ev_lookups + (h1 - h0) + (m1 - m0);
  changed

let collect_rule_stats t =
  List.concat_map
    (fun (once, loop) ->
      List.map
        (fun p ->
          {
            rs_rule = p.p_ir.Ralg.rule;
            rs_applications = p.ev_applications;
            rs_seconds = p.ev_seconds;
            rs_cache_lookups = p.ev_lookups;
          })
        (once @ loop))
    t.plans

(* --- Fixpoint certification: one non-committing application round ---

   The primitive behind [Pta.Certify]: evaluate every compiled plan in
   full (no deltas) against the relations' current values and diff the
   result against its head, committing nothing.  A true fixpoint of
   the loaded inputs yields no violations; any rule whose single
   application would add tuples is reported with the missing-tuple set
   as a BDD.  Because this shares the compiled plans but not the
   fixpoint driver, it certifies an answer independently of whichever
   evaluation path produced it (cold, incremental, capped, or an
   entirely different solver). *)

type violation = {
  vio_stratum : int;
  vio_rule : Ast.rule;
  vio_head : Relation.t;
  vio_fresh : Bdd.t;
      (* tuples this rule derives in one step that the head lacks;
         rooted only during the check — read it before the next GC *)
}

let check_fixpoint ?(max_violations = max_int) t =
  let man = Space.man t.sp in
  (* Root the accumulating diffs for the duration of the scan: later
     plan evaluations may trigger a collection, which rewrites the
     rooted list in place with relocated handles — so the handles are
     re-read from [keep] at the end, never from stale captures. *)
  let keep = ref [] in
  let metas = ref [] in
  Bdd.add_root_list man keep;
  Fun.protect
    ~finally:(fun () -> Bdd.remove_root_list man keep)
    (fun () ->
      List.iteri
        (fun si (once, loop) ->
          List.iter
            (fun plan ->
              if List.length !metas < max_violations then begin
                check_budget t;
                let result = eval_plan t plan ~delta_at:None in
                let fresh = Bdd.mk_diff man result (Relation.bdd plan.head.h_rel) in
                if fresh <> Bdd.bdd_false then begin
                  keep := fresh :: !keep;
                  metas := (si, plan) :: !metas
                end
              end)
            (once @ loop))
        t.plans;
      List.rev
        (List.map2
           (fun (si, plan) fresh ->
             { vio_stratum = si; vio_rule = plan.p_ir.Ralg.rule; vio_head = plan.head.h_rel; vio_fresh = fresh })
           !metas !keep))

(* The delta BDD standard semi-naive evaluation feeds a recursive join
   position: the position's own accumulator. *)
let delta_source t plan pos =
  match plan.steps.(pos).kind with
  | SJoin prep -> !(Hashtbl.find t.deltas (Relation.name prep.p_rel))
  | SConstrain _ | SSubtract _ -> fail "delta position %d is not a join" pos

(* One fixpoint round over a stratum's loop rules; shared by [run] and
   [run_incremental].  Returns whether anything committed. *)
let loop_round t loop =
  let changed = ref false in
  List.iter
    (fun plan ->
      if plan.delta_positions <> [] then
        List.iter
          (fun pos ->
            if apply t plan ~delta_at:(Some (pos, delta_source t plan pos)) ~track_delta:true then changed := true;
            maybe_gc t)
          plan.delta_positions
      else begin
        if apply t plan ~delta_at:None ~track_delta:true then changed := true;
        maybe_gc t
      end)
    loop;
  !changed

(* Rotate each pending accumulator into its delta for the next round;
   returns whether any delta is non-empty. *)
let rotate_pendings t (st : Stratify.stratum) =
  let any = ref false in
  List.iter
    (fun p ->
      let d = Hashtbl.find t.deltas p and pe = Hashtbl.find t.pendings p in
      d := !pe;
      pe := Bdd.bdd_false;
      if !d <> Bdd.bdd_false then any := true)
    st.Stratify.preds;
  !any

let check_iteration_budget t iterations =
  t.cur_iterations <- iterations;
  match t.budget with
  | None -> ()
  | Some b -> (
    match Budget.check_iterations b ~iterations with
    | Some reason -> raise (Bdd.Limit_exceeded reason)
    | None -> ())

let make_stats t ~t0 ~iterations =
  let man = Space.man t.sp in
  let s =
    {
      rule_applications = t.rule_apps;
      iterations;
      strata = List.length t.strata;
      peak_live_nodes = Bdd.peak_live_nodes man;
      solve_seconds = Unix.gettimeofday () -. t0;
      gcs = Bdd.gc_count man;
      op_cache = Bdd.cache_stats_by_class man;
      rule_stats = collect_rule_stats t;
      arena = Bdd.arena_stats man;
    }
  in
  t.stats <- Some s;
  s

let run t =
  let t0 = Unix.gettimeofday () in
  t.cur_iterations <- 0;
  t.track_fresh <- false;
  Hashtbl.reset t.incr_fresh;
  (* A previous run may have been aborted mid-round, leaving tuples in
     the pending accumulators.  Relations themselves are monotone (every
     commit unions into the head), so clearing the pendings and
     re-seeding deltas from the full relations below makes [run]
     restartable: it re-converges to the same fixpoint. *)
  Hashtbl.iter (fun _ pe -> pe := Bdd.bdd_false) t.pendings;
  let iterations = ref 0 in
  List.iter2
    (fun (st : Stratify.stratum) (once, loop) ->
      List.iter
        (fun plan ->
          ignore (apply t plan ~delta_at:None ~track_delta:false);
          maybe_gc t)
        once;
      if loop <> [] then begin
        (* Seed deltas with current contents. *)
        List.iter
          (fun p ->
            let d = Hashtbl.find t.deltas p in
            d := Relation.bdd (relation t p))
          st.Stratify.preds;
        let continue = ref true in
        while !continue do
          incr iterations;
          check_iteration_budget t !iterations;
          let changed = loop_round t loop in
          if t.opts.semi_naive then continue := rotate_pendings t st else continue := changed
        done
      end)
    t.strata t.plans;
  make_stats t ~t0 ~iterations:!iterations

(* --- Incremental fixpoint --- *)

(* The SJoin positions of [plan] whose source relation gained tuples
   this run, paired with the source's name.  [skip_delta] excludes the
   recursive positions (they are fed by the delta accumulators, not a
   one-shot pass).  The fresh BDD itself is re-read from [incr_fresh]
   at each application ([fresh_of]): a compacting collection between
   applications renumbers handles, and commits may grow the fresh set —
   both make a captured handle stale (re-reading a grown superset is
   sound: the pass covers at least the combinations it did before). *)
let fresh_positions t plan ~skip_delta =
  let acc = ref [] in
  Array.iteri
    (fun i stp ->
      match stp.kind with
      | SJoin prep ->
        if not (skip_delta && List.mem i plan.delta_positions) then (
          match Hashtbl.find_opt t.incr_fresh (Relation.name prep.p_rel) with
          | Some f when f <> Bdd.bdd_false -> acc := (i, Relation.name prep.p_rel) :: !acc
          | Some _ | None -> ())
      | SConstrain _ | SSubtract _ -> ())
    plan.steps;
  List.rev !acc

let fresh_of t name = Option.value (Hashtbl.find_opt t.incr_fresh name) ~default:Bdd.bdd_false

let run_incremental t ~changed =
  if not t.opts.semi_naive then run t
  else begin
    let t0 = Unix.gettimeofday () in
    t.cur_iterations <- 0;
    Hashtbl.iter (fun _ pe -> pe := Bdd.bdd_false) t.pendings;
    Hashtbl.reset t.incr_fresh;
    t.track_fresh <- true;
    List.iter (fun (name, added) -> if added <> Bdd.bdd_false then Hashtbl.replace t.incr_fresh name added) changed;
    let iterations = ref 0 in
    Fun.protect
      ~finally:(fun () -> t.track_fresh <- false)
      (fun () ->
        List.iter2
          (fun (st : Stratify.stratum) (once, loop) ->
            (* Once rules: re-evaluate only at body positions whose
               source gained tuples, against the fresh part alone.  A
               rule with multiple changed positions runs once per
               position — each pass holds the others at their full (new)
               value, so together they cover every new combination.
               Unchanged rules cost nothing. *)
            List.iter
              (fun plan ->
                let track = Hashtbl.mem t.pendings (Relation.name plan.head.h_rel) in
                List.iter
                  (fun (i, src) ->
                    let f = fresh_of t src in
                    if f <> Bdd.bdd_false then ignore (apply t plan ~delta_at:(Some (i, f)) ~track_delta:track);
                    maybe_gc t)
                  (fresh_positions t plan ~skip_delta:false))
              once;
            if loop <> [] then begin
              (* Pre-pass: changed non-recursive body atoms feed the
                 loop rules once, at their fresh part only. *)
              List.iter
                (fun plan ->
                  List.iter
                    (fun (i, src) ->
                      let f = fresh_of t src in
                      if f <> Bdd.bdd_false then ignore (apply t plan ~delta_at:(Some (i, f)) ~track_delta:true);
                      maybe_gc t)
                    (fresh_positions t plan ~skip_delta:true))
                loop;
              (* Seed the recursive deltas with only the tuples that are
                 new this run — external input deltas plus everything the
                 once rules and pre-pass just committed — instead of the
                 full relations.  This is the incremental saving: an
                 unchanged SCC converges in one empty round. *)
              let any = ref false in
              List.iter
                (fun p ->
                  let d = Hashtbl.find t.deltas p and pe = Hashtbl.find t.pendings p in
                  d := Option.value (Hashtbl.find_opt t.incr_fresh p) ~default:Bdd.bdd_false;
                  pe := Bdd.bdd_false;
                  if !d <> Bdd.bdd_false then any := true)
                st.Stratify.preds;
              (* Rounds run the recursive plans only.  A loop plan with
                 no delta position has a body free of same-stratum atoms
                 (positive atoms always compile to joins, and only
                 same-stratum joins are marked as delta positions), so
                 its inputs cannot change during the loop: the pre-pass
                 above already produced everything it can contribute,
                 and re-applying it full-size every round — as the cold
                 solver must — is pure waste here. *)
              let recursive = List.filter (fun plan -> plan.delta_positions <> []) loop in
              let continue = ref !any in
              while !continue do
                incr iterations;
                check_iteration_budget t !iterations;
                ignore (loop_round t recursive);
                continue := rotate_pendings t st
              done
            end)
          t.strata t.plans);
    make_stats t ~t0 ~iterations:!iterations
  end

let structured t f =
  match f () with
  | s -> Ok s
  | exception Bdd.Limit_exceeded reason ->
    Error
      (Solver_error.Budget_exhausted
         {
           Solver_error.reason;
           partial_iterations = t.cur_iterations;
           live_nodes = Bdd.live_nodes (Space.man t.sp);
         })
  | exception Engine_error msg -> Error (Solver_error.Internal msg)
  | exception Solver_error.Error e -> Error e (* pager IO/corruption faults *)

let solve t = structured t (fun () -> run t)
let solve_incremental t ~changed = structured t (fun () -> run_incremental t ~changed)

let last_stats t = t.stats

(* --- Explain --- *)

let explain fmt t =
  Format.fprintf fmt "domains:@\n";
  List.iter
    (fun (dname, d) ->
      let insts = List.length (Space.instances t.sp d) in
      Format.fprintf fmt "  %s: size %d, %d bits, %d physical instance%s@\n" dname (Domain.size d) (Domain.bits d)
        insts
        (if insts = 1 then "" else "s"))
    t.res.Resolve.domains;
  Format.fprintf fmt "passes:@\n";
  List.iter
    (fun (p : Ralg.pass) ->
      Format.fprintf fmt "  [%s] %-10s %s@\n" (if p.Ralg.pass_on then "on " else "off") p.Ralg.pass_name
        p.Ralg.pass_doc)
    (Ralg.pass_list (toggles_of_options t.opts) ~stratum_preds:[]);
  List.iteri
    (fun si (once, loop) ->
      Format.fprintf fmt "stratum %d (%d once, %d loop):@\n" (si + 1) (List.length once) (List.length loop);
      List.iter (fun ir -> Ralg.pp_plan t.res fmt ir) (once @ loop))
    t.ir_plans;
  match t.stats with
  | Some s when List.exists (fun r -> r.rs_applications > 0) s.rule_stats ->
    Format.fprintf fmt "per-rule stats (cumulative over %d applications):@\n" s.rule_applications;
    let sorted = List.sort (fun a b -> compare b.rs_seconds a.rs_seconds) s.rule_stats in
    List.iter
      (fun r ->
        Format.fprintf fmt "  %9.3fs %7d apps %12d bdd-cache-lookups  %a%a@\n" r.rs_seconds r.rs_applications
          r.rs_cache_lookups Ast.pp_pos_prefix r.rs_rule Ast.pp_atom r.rs_rule.Ast.head)
      sorted
  | Some _ | None -> ()
