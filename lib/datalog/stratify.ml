type stratum = { preds : string list; once_rules : Ast.rule list; loop_rules : Ast.rule list }

exception Not_stratified of string

(* Dependency graph over all predicate names: an edge body -> head for
   every body literal.  Returns (names, index-of, graph, negative edge
   list). *)
let dependency_graph (p : Ast.program) =
  let names = List.map (fun (r : Ast.rel_decl) -> r.Ast.rel_name) p.Ast.relations in
  let index = Hashtbl.create 16 in
  List.iteri (fun i n -> Hashtbl.add index n i) names;
  let idx n =
    match Hashtbl.find_opt index n with
    | Some i -> i
    | None -> raise (Not_stratified (Printf.sprintf "undeclared relation %s" n))
  in
  let edges = ref [] in
  let neg_edges = ref [] in
  List.iter
    (fun (r : Ast.rule) ->
      let h = idx r.Ast.head.Ast.pred in
      List.iter
        (fun lit ->
          match lit with
          | Ast.Pos a -> edges := (idx a.Ast.pred, h) :: !edges
          | Ast.Neg a ->
            edges := (idx a.Ast.pred, h) :: !edges;
            neg_edges := (idx a.Ast.pred, h) :: !neg_edges
          | Ast.Cmp _ -> ())
        r.Ast.body)
    p.Ast.rules;
  (Array.of_list names, idx, Graphutil.make (List.length names) !edges, !neg_edges)

let strata (p : Ast.program) =
  let names, idx, g, neg_edges = dependency_graph p in
  let comp, members = Graphutil.scc g in
  List.iter
    (fun (a, b) ->
      if comp.(a) = comp.(b) then
        raise
          (Not_stratified
             (Printf.sprintf "negation of %s inside the recursive component defining %s" names.(a) names.(b))))
    neg_edges;
  let ncomps = Array.length members in
  (* Tarjan completes the components a node can reach before the node's
     own component, so for a dependency edge body -> head we have
     comp(head) < comp(body).  Descending index order therefore
     evaluates dependencies first. *)
  let rules_of_comp = Array.make ncomps ([], []) in
  List.iter
    (fun (r : Ast.rule) ->
      let c = comp.(idx r.Ast.head.Ast.pred) in
      let recursive =
        List.exists
          (fun lit ->
            match lit with
            | Ast.Pos a -> comp.(idx a.Ast.pred) = c
            | Ast.Neg _ | Ast.Cmp _ -> false)
          r.Ast.body
      in
      let once, loop = rules_of_comp.(c) in
      rules_of_comp.(c) <- (if recursive then (once, r :: loop) else (r :: once, loop)))
    p.Ast.rules;
  List.filter_map
    (fun c ->
      let once, loop = rules_of_comp.(c) in
      if once = [] && loop = [] then None
      else
        Some { preds = List.map (fun v -> names.(v)) members.(c); once_rules = List.rev once; loop_rules = List.rev loop })
    (List.init ncomps (fun c -> ncomps - 1 - c))
