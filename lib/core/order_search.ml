module Factgen = Jir.Factgen
module Engine = Datalog.Engine

type candidate = { order : string list; seconds : float; peak_nodes : int; rule_applications : int }
type job = Basic of Analyses.basic | Context_sensitive of Context.t

(* A tiny deterministic shuffler (no dependency on the synth library). *)
let shuffle seed xs =
  let state = ref (seed * 2654435761 land max_int) in
  let next bound =
    state := ((!state * 1103515245) + 12345) land max_int;
    !state / 65536 mod bound
  in
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = next (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let program_text fg job =
  match job with
  | Basic Analyses.Algo1 -> Programs.algo1 fg
  | Basic Analyses.Algo2 -> Programs.algo2 fg
  | Basic Analyses.Algo3 -> Programs.algo3 fg
  | Context_sensitive ctx -> Programs.algo5 fg ~csize:(Context.csize ctx)

let run_candidate fg job program order =
  let t0 = Unix.gettimeofday () in
  let eng = Engine.create ~element_names:(Factgen.element_names fg) ~domain_order:order program in
  List.iter
    (fun (name, tuples) -> Engine.set_tuples eng name (List.map Array.of_list tuples))
    (Programs.input_relations fg);
  (match job with
  | Context_sensitive ctx ->
    let block_of rel n = (Relation.find_attr rel n).Relation.block in
    let iec = Engine.relation eng "IEC" in
    Relation.set_bdd iec
      (Context.iec_bdd ctx (Engine.space eng) ~caller:(block_of iec "caller") ~invoke:(block_of iec "invoke")
         ~callee:(block_of iec "callee") ~target:(block_of iec "tgt"));
    let mc = Engine.relation eng "mC" in
    Relation.set_bdd mc
      (Context.mc_bdd ctx (Engine.space eng) ~context:(block_of mc "context") ~target:(block_of mc "method"))
  | Basic _ -> ());
  let s = Engine.run eng in
  {
    order;
    seconds = Unix.gettimeofday () -. t0;
    peak_nodes = s.Engine.peak_live_nodes;
    rule_applications = s.Engine.rule_applications;
  }

let search ?(budget = 6) ?(seed = 1) fg job =
  let program = Datalog.Parser.parse (program_text fg job) in
  (* Start from the order the program runs with. *)
  let base = Datalog.Ast.domain_order program in
  let candidates =
    base :: List.rev base :: List.init budget (fun i -> shuffle (seed + i) base)
  in
  (* Deduplicate orders (a shuffle may reproduce one already tried). *)
  let seen = Hashtbl.create 8 in
  let candidates =
    List.filter
      (fun o ->
        let key = String.concat "," o in
        if Hashtbl.mem seen key then false
        else begin
          Hashtbl.add seen key ();
          true
        end)
      candidates
  in
  let results = List.map (run_candidate fg job program) candidates in
  List.sort (fun a b -> compare (a.peak_nodes, a.seconds) (b.peak_nodes, b.seconds)) results
