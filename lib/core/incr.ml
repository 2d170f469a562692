module Factgen = Jir.Factgen
module Engine = Datalog.Engine

type cold_reason =
  | Layout_changed of string
  | Relation_set_changed of string list
  | Removals of string list
  | Negation of string list

type verdict = Incremental | Unchanged | Cold of cold_reason

type outcome = {
  engine : Engine.t;
  program_text : string;
  verdict : verdict;
  stats : Engine.stats option; (* None for Unchanged: nothing was solved *)
  deltas : (string * Bdd.t * Bdd.t) list;
  changed_inputs : string list;
}

let cold_reason_to_string = function
  | Layout_changed msg -> Printf.sprintf "variable layout changed (%s)" msg
  | Relation_set_changed names ->
    Printf.sprintf "stored relation set differs from the program's (%s)" (String.concat ", " names)
  | Removals names -> Printf.sprintf "input tuples removed (%s)" (String.concat ", " names)
  | Negation names -> Printf.sprintf "program negates %s" (String.concat ", " names)

let verdict_to_string = function
  | Incremental -> "incremental"
  | Unchanged -> "unchanged"
  | Cold reason -> Printf.sprintf "cold (%s)" (cold_reason_to_string reason)

(* Copy every stored relation's BDD into the engine's manager as one
   shared-DAG transfer.  Only valid when the layouts match. *)
let transfer_relations store eng =
  let srels = Store.relations store in
  let roots = Bdd.copy (Space.man (Store.space store)) (Space.man (Engine.space eng)) (List.map Relation.bdd srels) in
  List.map2 (fun r b -> (Relation.name r, b)) srels roots

let sym_diff a b =
  List.sort_uniq compare (List.filter (fun x -> not (List.mem x b)) a @ List.filter (fun x -> not (List.mem x a)) b)

let update ?options ?query ~algo ~store fg =
  let engine, program_text = Analyses.prepare_basic ?options ?query ~algo fg in
  let man = Space.man (Engine.space engine) in
  let declared = List.map Relation.name (Engine.declared_relations engine) in
  let stored = List.map Relation.name (Store.relations store) in
  let finish verdict stats deltas changed_inputs = Ok { engine; program_text; verdict; stats; deltas; changed_inputs } in
  (* A cold fall-back is just the ordinary full solve on the freshly
     prepared engine: inputs already hold the new program's tuples and
     no derived relation has been seeded with stale state. *)
  let cold reason =
    match Engine.solve engine with
    | Ok stats -> finish (Cold reason) (Some stats) [] []
    | Error e -> Error e
  in
  if List.sort compare declared <> List.sort compare stored then
    cold (Relation_set_changed (sym_diff declared stored))
  else
    match Space.layout_mismatch ~stored:(Store.space store) ~current:(Engine.space engine) with
    | Some msg -> cold (Layout_changed msg)
    | None -> (
      let old = transfer_relations store engine in
      let old_of name = List.assoc name old in
      (* Per-input BDD diffs against the stored run's inputs. *)
      let input_diffs =
        List.map
          (fun r ->
            let name = Relation.name r in
            let prev = old_of name and now = Relation.bdd r in
            (name, Bdd.mk_diff man now prev, Bdd.mk_diff man prev now))
          (Engine.input_relations engine)
      in
      let removals = List.filter_map (fun (n, _, rem) -> if rem <> Bdd.bdd_false then Some n else None) input_diffs in
      let additions = List.filter_map (fun (n, add, _) -> if add <> Bdd.bdd_false then Some n else None) input_diffs in
      if removals <> [] then
        (* Retracting an input can retract derived facts, and the
           engine's commits are strictly monotone — the stored fixpoint
           is no longer an under-approximation of the new one.  The
           explicit policy rung: any removal ⇒ cold. *)
        cold (Removals removals)
      else if additions = [] then begin
        (* Semantically identical inputs: adopt the stored fixpoint
           wholesale, solve nothing. *)
        List.iter (fun r -> Relation.set_bdd r (old_of (Relation.name r))) (Engine.declared_relations engine);
        finish Unchanged None [] []
      end
      else
        match Engine.negated_relations engine with
        | _ :: _ as negated ->
          (* Subtraction makes rules non-monotone in the subtracted
             relation; additions anywhere upstream of one can retract
             derived facts.  Conservative gate: any negation ⇒ cold. *)
          cold (Negation (List.sort compare negated))
        | [] -> (
          (* Incremental path: start every derived relation from the
             stored fixpoint, keep the freshly extracted inputs, and
             re-solve from only the added tuples. *)
          let is_input name = List.exists (fun (n, _, _) -> n = name) input_diffs in
          List.iter
            (fun r ->
              let name = Relation.name r in
              if not (is_input name) then Relation.set_bdd r (old_of name))
            (Engine.declared_relations engine);
          (* The old values are read again after the solve (to compute
             the store deltas) — keep them alive across its GCs as a
             registered root list, which compacting collections rewrite
             in place (so the handles stay valid after renumbering;
             [old]'s own handles are stale once the solve has GC'd). *)
          let names = List.map fst old in
          let rooted = ref (List.map snd old) in
          Bdd.add_root_list man rooted;
          let changed = List.filter_map (fun (n, add, _) -> if add <> Bdd.bdd_false then Some (n, add) else None) input_diffs in
          match Engine.solve_incremental engine ~changed with
          | Error e ->
            Bdd.remove_root_list man rooted;
            Error e
          | Ok stats ->
            let old_now name = List.assoc name (List.combine names !rooted) in
            let deltas =
              List.filter_map
                (fun name ->
                  let prev = old_now name and now = Relation.bdd (Engine.relation engine name) in
                  let add = Bdd.mk_diff man now prev and rem = Bdd.mk_diff man prev now in
                  if add = Bdd.bdd_false && rem = Bdd.bdd_false then None else Some (name, add, rem))
                declared
            in
            Bdd.remove_root_list man rooted;
            finish Incremental (Some stats) deltas additions))

(* --- The commit cycle --- *)

let store_key ~program_bytes ~algo ~(query : Programs.query_suffix) =
  let fields = [ program_bytes; algo; query.q_relations; query.q_rules; string_of_int Store.format_version ] in
  Digest.to_hex (Digest.string (String.concat "\x00" fields))

type mark = Not_certifying | Marked | Mark_refused of string
type rescue = { r_quarantined : string option; r_check : Certify.verdict }

type committed = {
  c_key : string;
  c_outcome : outcome;
  c_check : Certify.verdict option;
  c_rescue : rescue option;
  c_snapshot : int;
  c_layers : int;
  c_compacted : (int * int) option;
  c_mark : mark;
}

type commit = Current of Store.t | Committed of committed

let commit ?options ~certify ~compact_every ~dir ~program_path ~program_bytes () =
  let ( let* ) = Result.bind in
  try
    let st = Store.load ~dir in
    let tag = Option.value (Store.config_value st "algo") ~default:"(unrecorded)" in
    let key = store_key ~program_bytes ~algo:tag ~query:Programs.no_query in
    match Analyses.basic_of_tag tag with
    | None ->
      Solver_error.raise_bad_input ~file:(Store.manifest_path dir) ~line:0
        "store was saved by %s; update supports algo1, algo2 and algo3" tag
    | Some _ when Store.key st = key -> Ok (Current st)
    | Some algo ->
      let fg =
        match Jir.Jparser.parse program_bytes with
        | p -> Factgen.extract p
        | exception Jir.Jparser.Parse_error { line; message } ->
          Solver_error.raise_bad_input ~file:program_path ~line "%s" message
      in
      let* o = update ?options ~algo ~store:st fg in
      (* Certify the candidate before it is written: a result that is
         not a closed model of this program's rules never reaches the
         chain.  One that fails takes the delta chain it was built on
         out of service and is replaced by a cold re-solve, which must
         certify in turn. *)
      let check eng = Certify.certify_engine ~algo:tag ~fresh_inputs:(Programs.input_relations fg) eng in
      let c_check = if certify then Some (check o.engine) else None in
      let* c_rescue, engine =
        match c_check with
        | Some v when not (Certify.passed v) -> (
          let r_quarantined = Store.quarantine_layers ~dir ~from_layer:1 in
          let* cold = Analyses.solve_basic ?options ~algo fg in
          let r_check = check cold.Analyses.engine in
          match r_check.Certify.v_failure with
          | Some f ->
            Error
              (Solver_error.Internal
                 (Printf.sprintf "cold re-solve also failed certification (%s); refusing to commit"
                    (Certify.failure_to_string f)))
          | None -> Ok (Some { r_quarantined; r_check }, cold.Analyses.engine))
        | Some _ | None -> Ok (None, o.engine)
      in
      let config = [ ("program", Filename.basename program_path); ("algo", tag) ] in
      let space = Engine.space engine in
      let c_layers, c_snapshot =
        match (c_rescue, o.verdict) with
        | None, (Incremental | Unchanged) -> Store.save_delta_snapshot ~dir ~key ~config ~space ~deltas:o.deltas
        | Some _, _ | None, Cold _ ->
          (0, Store.save_snapshot ~dir ~key ~config ~space ~relations:(Engine.declared_relations engine))
      in
      let c_compacted =
        if compact_every > 0 && c_layers >= compact_every then
          match Store.compact_snapshot ~dir with 0, _ -> None | squashed -> Some squashed
        else None
      in
      (* One mark, naming the identity this call committed last. *)
      let c_mark =
        if not certify then Not_certifying
        else
          let snapshot = match c_compacted with Some (_, s) -> s | None -> c_snapshot in
          match Store.mark_certified_ident ~dir ~key ~snapshot with
          | () -> Marked
          | exception Solver_error.Error e -> Mark_refused (Solver_error.to_string e)
      in
      Ok (Committed { c_key = key; c_outcome = o; c_check; c_rescue; c_snapshot; c_layers; c_compacted; c_mark })
  with Solver_error.Error e -> Error e
