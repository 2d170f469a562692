(* Type refinement (§5.3, Figure 6).

   Libraries declare the most general types; applications use only a
   fraction of that generality.  The query finds variables whose
   declared type can be tightened, across the paper's six analysis
   variants — watch the multi-typed percentage fall and the refinable
   percentage rise as precision increases.

   Run with: dune exec examples/type_refinement.exe *)

module Factgen = Jir.Factgen
module Analyses = Pta.Analyses
module Queries = Pta.Queries

let () =
  (* A mid-size synthetic benchmark: Object-typed utility methods with
     heavy fan-in are exactly where refinement is possible. *)
  let profile = Option.get (Synth.Profiles.find "joone") in
  let program = Synth.Generator.generate (Synth.Profiles.params ~scale:0.03 profile) in
  let fg = Factgen.extract program in
  Printf.printf "Benchmark: %s (%s), scaled.\n\n" profile.Synth.Profiles.name profile.Synth.Profiles.description;
  let row name r =
    Printf.printf "  %-34s population %7.0f   multi %5.2f%%   refinable %5.2f%%\n" name r.Analyses.population
      r.Analyses.multi_pct r.Analyses.refinable_pct
  in
  (* 1-2: context-insensitive, without and with the type filter. *)
  let v1 = Analyses.run_basic ~algo:Analyses.Algo1 fg ~query:Queries.refinement_ci in
  row "CI pointers, no type filter" (Analyses.refinement_ratios (Analyses.count v1) ~per_clone:false);
  let v2 = Analyses.run_basic ~algo:Analyses.Algo2 fg ~query:Queries.refinement_ci in
  row "CI pointers, type filter" (Analyses.refinement_ratios (Analyses.count v2) ~per_clone:false);
  (* Context numbering for the sensitive variants. *)
  let otf = Analyses.run_basic ~algo:Analyses.Algo3 fg in
  let ctx = Analyses.make_context fg ~ie:(Analyses.ie_tuples otf) in
  (* 3-4: context-sensitive, results projected back to plain variables. *)
  let v3 = Analyses.run_cs fg ctx ~query:Queries.refinement_projected_cs in
  row "CS pointers, context projected" (Analyses.refinement_ratios (Analyses.count v3) ~per_clone:false);
  let v4 = Analyses.run_cs_types fg ctx ~query:Queries.refinement_projected_ts in
  row "CS types, context projected" (Analyses.refinement_ratios (Analyses.count v4) ~per_clone:false);
  (* 5-6: fully context-sensitive, per clone. *)
  let v5 = Analyses.run_cs fg ctx ~query:Queries.refinement_full_cs in
  row "CS pointers, per clone" (Analyses.refinement_ratios (Analyses.count v5) ~per_clone:true);
  let v6 = Analyses.run_cs_types fg ctx ~query:Queries.refinement_full_ts in
  row "CS types, per clone" (Analyses.refinement_ratios (Analyses.count v6) ~per_clone:true);
  print_endline "\nAs in the paper: type filtering is strictly more precise, the";
  print_endline "context-sensitive pointer analysis more precise still, and the";
  print_endline "fully-cloned results have the fewest multi-typed variables."
