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

(* The exact physical layout of a space: every block's (domain,
   instance, variable ids), sorted.  Two spaces with equal shapes give
   the same meaning to the same BDD, which is what makes the
   serialize/deserialize transfer below — and the whole delta-layer
   scheme — valid.  Domain {e sizes} are deliberately not part of the
   shape: a domain may grow within its bit width without moving any
   variable. *)
let space_shape sp =
  List.sort compare
    (List.concat_map
       (fun d ->
         List.map (fun (b : Space.block) -> (Domain.name d, b.Space.instance, b.Space.bits)) (Space.instances sp d))
       (Space.domains sp))

let layout_mismatch ~stored ~current =
  if Space.num_vars stored <> Space.num_vars current then
    Some (Printf.sprintf "%d variables stored, %d now" (Space.num_vars stored) (Space.num_vars current))
  else
    let s = space_shape stored and c = space_shape current in
    if s = c then None
    else
      let keys = List.map (fun (dn, i, _) -> (dn, i)) in
      let only_in a b = List.find_opt (fun k -> not (List.mem k b)) a in
      match (only_in (keys s) (keys c), only_in (keys c) (keys s)) with
      | Some (dn, i), _ -> Some (Printf.sprintf "block %s#%d no longer allocated" dn i)
      | None, Some (dn, i) -> Some (Printf.sprintf "block %s#%d newly allocated" dn i)
      | None, None -> (
        (* The same blocks: pair them up, then tell a real width change
           from blocks that only sit at other variable ids. *)
        let pairs = List.combine s c in
        match List.find_opt (fun ((_, _, b), (_, _, b')) -> Array.length b <> Array.length b') pairs with
        | Some ((dn, i, b), (_, _, b')) ->
          Some
            (Printf.sprintf "block widths changed (%s#%d: %d bits stored, %d now)" dn i (Array.length b)
               (Array.length b'))
        | None ->
          (* Name the moved block lowest in the stored layout. *)
          let lowest (_, _, b) = Array.fold_left min max_int b in
          let moved = List.filter_map (fun (((_, _, b) as sb), (_, _, b')) -> if b <> b' then Some sb else None) pairs in
          let dn, i, _ = List.hd (List.sort (fun x y -> compare (lowest x) (lowest y)) moved) in
          Some (Printf.sprintf "block %s#%d moved" dn i))

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
    match layout_mismatch ~stored:(Store.space store) ~current:(Engine.space engine) with
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
