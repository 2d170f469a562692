module Engine = Datalog.Engine
module Ast = Datalog.Ast

type witness = {
  w_relation : string;
  w_attrs : string list;
  w_tuples : string list list;
  w_total : float;
}

type failure =
  | Unsupported of string
  | Shape_mismatch of string
  | Input_not_contained of { relation : string; witness : witness }
  | Rule_not_closed of { rule : string; rule_pos : string option; stratum : int; witness : witness }

type report = { c_algo : string; c_relations : int; c_rules : int; c_strata : int; c_seconds : float }
type verdict = { v_report : report; v_failure : failure option }

let passed v = v.v_failure = None

(* Read a bounded sample out of [rel] — a scratch relation holding a
   violating tuple set — rendering elements through their domains'
   names.  [relation] is the violated relation's real name (the scratch
   holder's is a mangled internal one). *)
let sample_of ~max_witness ~relation rel =
  let total = Relation.count rel in
  let attrs = Relation.attrs rel in
  let doms = List.map (fun (a : Relation.attr) -> a.Relation.block.Space.dom) attrs in
  let sample = ref [] and n = ref 0 in
  (try
     Relation.iter_tuples rel (fun tu ->
         if !n >= max_witness then raise Exit;
         incr n;
         sample := List.mapi (fun i d -> Domain.element_name d tu.(i)) doms :: !sample)
   with Exit -> ());
  {
    w_relation = relation;
    w_attrs = List.map (fun (a : Relation.attr) -> a.Relation.attr_name) attrs;
    w_tuples = List.rev !sample;
    w_total = total;
  }

(* Materialize [get ()] — a violating tuple set over [src]'s attributes
   — into a scratch relation and sample it.  [get] re-reads a rooted
   handle at the last possible moment: any allocation here can trigger
   a compacting collection, which rewrites rooted lists in place, so a
   handle captured earlier may be stale. *)
let witness_of ~max_witness src get =
  let tmp = Relation.make (Relation.space src) ~name:(Relation.name src ^ "#viol") (Relation.attrs src) in
  Fun.protect
    ~finally:(fun () -> Relation.dispose tmp)
    (fun () ->
      Relation.set_bdd tmp (get ());
      sample_of ~max_witness ~relation:(Relation.name src) tmp)

(* Containment check: every freshly extracted input tuple must already
   be in the candidate.  The fresh tuples come in as explicit lists (a
   new {!Programs.input_relations} extraction), deliberately not read
   from the engine — by the time this runs the engine's relations hold
   the candidate's values, which is the thing under suspicion. *)
let input_failure ~max_witness eng inputs =
  let sp = Engine.space eng in
  let man = Space.man sp in
  List.fold_left
    (fun acc (name, tuples) ->
      match acc with
      | Some _ -> acc
      | None -> (
        match Engine.relation eng name with
        | exception Engine.Engine_error _ ->
          (* Extraction relations the checked program doesn't declare
             (a query-suffix-less variant, say) constrain nothing. *)
          None
        | rel ->
          let tmp = Relation.make sp ~name:(name ^ "#fresh") (Relation.attrs rel) in
          Fun.protect
            ~finally:(fun () -> Relation.dispose tmp)
            (fun () ->
              Relation.set_tuples tmp (List.map Array.of_list tuples);
              let diff = Bdd.mk_diff man (Relation.bdd tmp) (Relation.bdd rel) in
              if diff = Bdd.bdd_false then None
              else begin
                (* Park the diff in the scratch relation: its BDD slot
                   is a GC root, so the sampling work can't lose it. *)
                Relation.set_bdd tmp diff;
                Some (Input_not_contained { relation = name; witness = sample_of ~max_witness ~relation:name tmp })
              end)))
    None inputs

(* Closure check: one full, non-committing application of every
   compiled rule.  The first violation's fresh-tuple set is unrooted
   the moment [check_fixpoint] returns (no BDD work happens in
   between), so re-root it before sampling. *)
let rule_failure ~max_witness eng =
  let man = Space.man (Engine.space eng) in
  match Engine.check_fixpoint ~max_violations:1 eng with
  | [] -> None
  | { Engine.vio_stratum; vio_rule; vio_head; vio_fresh } :: _ ->
    let dref = ref [ vio_fresh ] in
    Bdd.add_root_list man dref;
    Fun.protect
      ~finally:(fun () -> Bdd.remove_root_list man dref)
      (fun () ->
        let witness = witness_of ~max_witness vio_head (fun () -> List.hd !dref) in
        Some
          (Rule_not_closed
             {
               rule = Format.asprintf "%a" Ast.pp_rule vio_rule;
               rule_pos = Option.map (fun p -> Format.asprintf "%a" Ast.pp_pos p) vio_rule.Ast.rule_pos;
               stratum = vio_stratum;
               witness;
             }))

let certify_engine ?(algo = "<live>") ?(max_witness = 5) ?fresh_inputs eng =
  let t0 = Unix.gettimeofday () in
  let strata = Engine.ir_plans eng in
  let v_failure =
    match
      match fresh_inputs with
      | None -> None
      | Some inputs -> input_failure ~max_witness eng inputs
    with
    | Some _ as f -> f
    | None -> rule_failure ~max_witness eng
  in
  {
    v_report =
      {
        c_algo = algo;
        c_relations = List.length (Engine.declared_relations eng);
        c_rules = List.fold_left (fun n (once, loop) -> n + List.length once + List.length loop) 0 strata;
        c_strata = List.length strata;
        c_seconds = Unix.gettimeofday () -. t0;
      };
    v_failure;
  }

(* --- Store certification --- *)

(* The domain order a store's variable layout records: its domains
   sorted by their lowest variable id.  The checker is built in this
   order, not the program's, so a store saved before a program's
   [.bddvarorder] changed still certifies. *)
let stored_domain_order sp =
  let lowest d =
    List.fold_left (fun m (b : Space.block) -> Array.fold_left min m b.Space.bits) max_int (Space.instances sp d)
  in
  List.map snd (List.sort compare (List.map (fun d -> (lowest d, Domain.name d)) (Space.domains sp)))

(* Rebuild an independent checker engine for the algorithm tag the
   store's config records.  The context-sensitive tags share one
   claimed-context checker: the Algorithm 5 program at the store's C
   domain size, with IEC/mC left empty for the candidate to fill —
   the context numbering is part of the answer, not recomputed. *)
let checker_engine ?options ?query fg store =
  let domain_order = stored_domain_order (Store.space store) in
  match Store.config_value store "algo" with
  | None -> Error (Unsupported "store config records no algo tag")
  | Some algo -> (
    match (Analyses.basic_of_tag algo, algo) with
    | Some basic, _ -> Ok (fst (Analyses.prepare_basic ?options ?query ~domain_order ~algo:basic fg), algo)
    | None, ("algo5" | "1cfa" | "algo5-otf") -> (
      match Store.domain store "C" with
      | None -> Error (Shape_mismatch (Printf.sprintf "%s store has no C domain" algo))
      | Some d ->
        Ok
          ( fst
              (Analyses.prepare_cs_claimed ?options ?query ~domain_order ~otf:(algo = "algo5-otf") fg
                 ~csize:(Domain.size d)),
            algo ))
    | None, other -> Error (Unsupported (Printf.sprintf "no independent rule set for algo %S" other)))

let report_stub algo seconds = { c_algo = algo; c_relations = 0; c_rules = 0; c_strata = 0; c_seconds = seconds }

let certify_store ?options ?query ?(max_witness = 5) fg store =
  let t0 = Unix.gettimeofday () in
  let fail algo f = { v_report = report_stub algo (Unix.gettimeofday () -. t0); v_failure = Some f } in
  let stored_algo () = Option.value (Store.config_value store "algo") ~default:"?" in
  match checker_engine ?options ?query fg store with
  | exception Engine.Engine_error msg ->
    (* The store's layout names a domain the checked program lacks. *)
    fail (stored_algo ()) (Shape_mismatch msg)
  | Error f -> fail (stored_algo ()) f
  | Ok (eng, algo) -> (
    match Space.layout_mismatch ~stored:(Store.space store) ~current:(Engine.space eng) with
    | Some msg -> fail algo (Shape_mismatch msg)
    | None -> (
      let declared = Engine.declared_relations eng in
      match List.filter (fun r -> Option.is_none (Store.find store (Relation.name r))) declared with
      | _ :: _ as missing ->
        fail algo
          (Shape_mismatch
             (Printf.sprintf "store lacks relation(s) %s" (String.concat ", " (List.map Relation.name missing))))
      | [] ->
        let man = Space.man (Engine.space eng) in
        let srels = List.map (fun r -> Option.get (Store.find store (Relation.name r))) declared in
        let rooted = ref (Bdd.copy (Space.man (Store.space store)) man (List.map Relation.bdd srels)) in
        Bdd.add_root_list man rooted;
        Fun.protect
          ~finally:(fun () -> Bdd.remove_root_list man rooted)
          (fun () ->
            (* Install the candidate wholesale — including its claimed
               computed inputs (IEC/mC for Algorithm 5 programs), which
               the claimed-context checker deliberately left empty.
               Handles are re-read through the rooted ref at each use:
               compacting collections rewrite the list in place. *)
            List.iteri (fun i r -> Relation.set_bdd r (List.nth !rooted i)) declared;
            let v = certify_engine ~algo ~max_witness ~fresh_inputs:(Programs.input_relations fg) eng in
            { v with v_report = { v.v_report with c_seconds = Unix.gettimeofday () -. t0 } })))

(* --- Rendering --- *)

let witness_lines w =
  let shown = List.length w.w_tuples in
  let header =
    Printf.sprintf "  %s(%s): %.0f violating tuple%s%s" w.w_relation (String.concat ", " w.w_attrs) w.w_total
      (if w.w_total = 1.0 then "" else "s")
      (if float_of_int shown < w.w_total then Printf.sprintf ", showing %d" shown else "")
  in
  header :: List.map (fun t -> "    (" ^ String.concat ", " t ^ ")") w.w_tuples

let failure_to_string = function
  | Unsupported msg -> "unsupported: " ^ msg
  | Shape_mismatch msg -> "shape mismatch: " ^ msg
  | Input_not_contained { relation; witness } ->
    Printf.sprintf "input %s not contained in the solution (%.0f tuple(s) missing)" relation witness.w_total
  | Rule_not_closed { rule; rule_pos; stratum; witness } ->
    Printf.sprintf "rule not closed (stratum %d%s): %s derives %.0f new tuple(s)" stratum
      (match rule_pos with Some p -> ", " ^ p | None -> "")
      rule witness.w_total

let verdict_lines v =
  let r = v.v_report in
  match v.v_failure with
  | None ->
    [
      Printf.sprintf "certify: ok algo=%s relations=%d rules=%d strata=%d seconds=%.3f" r.c_algo r.c_relations
        r.c_rules r.c_strata r.c_seconds;
    ]
  | Some f ->
    Printf.sprintf "certify: FAILED algo=%s seconds=%.3f: %s" r.c_algo r.c_seconds (failure_to_string f)
    ::
    (match f with
    | Input_not_contained { witness; _ } | Rule_not_closed { witness; _ } -> witness_lines witness
    | Unsupported _ | Shape_mismatch _ -> [])
