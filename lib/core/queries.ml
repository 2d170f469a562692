(* Shared §5.3 refinement core over a context-insensitive exact-type
   relation [exactT]. *)
let refinement_ci_core =
  {|candidate(v, tc) :- vT(v, td), aT(td, tc), td != tc.
activeV(v) :- exactT(v, _).
notVarType(v, t) :- candidate(v, t), exactT(v, tv), !aT(t, tv).
multiT(v) :- exactT(v, t1), exactT(v, t2), t1 != t2.
refinable(v) :- activeV(v), candidate(v, t), !notVarType(v, t).
|}

let refinement_ci_relations =
  {|exactT (variable : V, type : T)
candidate (variable : V, type : T)
notVarType (variable : V, type : T)
output activeV (variable : V)
output multiT (variable : V)
output refinable (variable : V)
|}

let refinement_ci =
  {
    Programs.q_relations = refinement_ci_relations;
    q_rules = "exactT(v, t) :- vP(v, h), hT(h, t).\n" ^ refinement_ci_core;
  }

let refinement_projected_cs =
  {
    Programs.q_relations = refinement_ci_relations;
    q_rules = "exactT(v, t) :- vPC(_, v, h), hT(h, t).\n" ^ refinement_ci_core;
  }

let refinement_projected_ts =
  {
    Programs.q_relations = refinement_ci_relations;
    q_rules = "exactT(v, t) :- vTC(_, v, t).\n" ^ refinement_ci_core;
  }

(* Per-clone refinement: the population is (context, variable) pairs,
   which is how the full context-sensitive columns of Figure 6 stay
   under 1-2% multi-typed.  The population is restricted to a method's
   actual clones (mV/mC): loads through the context-blind global
   variable propagate values into every context (rule (17) with the
   global as base), and those phantom clones are not part of the
   cloned program. *)
let refinement_full_core =
  {|candidate(v, tc) :- vT(v, td), aT(td, tc), td != tc.
activeC(c, v) :- exactC(c, v, _), mV(m, v), mC(c, m).
candC(c, v, t) :- activeC(c, v), candidate(v, t).
notVarTypeC(c, v, t) :- candC(c, v, t), exactC(c, v, tv), !aT(t, tv).
multiC(c, v) :- activeC(c, v), exactC(c, v, t1), exactC(c, v, t2), t1 != t2.
refinableC(c, v) :- candC(c, v, t), !notVarTypeC(c, v, t).
|}

let refinement_full_relations =
  {|exactC (context : C, variable : V, type : T)
candidate (variable : V, type : T)
candC (context : C, variable : V, type : T)
notVarTypeC (context : C, variable : V, type : T)
output activeC (context : C, variable : V)
output multiC (context : C, variable : V)
output refinableC (context : C, variable : V)
|}

let refinement_full_cs =
  {
    Programs.q_relations = refinement_full_relations;
    q_rules = "exactC(c, v, t) :- vPC(c, v, h), hT(h, t).\n" ^ refinement_full_core;
  }

let refinement_full_ts =
  {
    Programs.q_relations = refinement_full_relations;
    q_rules = "exactC(c, v, t) :- vTC(c, v, t).\n" ^ refinement_full_core;
  }

let mod_ref =
  {
    Programs.q_relations =
      {|output mVC (c1 : C, m1 : M, c2 : C, var : V)
output modset (context : C, method : M, heap : H, field : F)
output refset (context : C, method : M, heap : H, field : F)
|};
    q_rules =
      {|mVC(c, m, c, v) :- mV(m, v), mC(c, m).
mVC(c1, m1, c3, v3) :- mI(m1, i, _), IEC(c1, i, c2, m2), mVC(c2, m2, c3, v3).
modset(c, m, h, f) :- mVC(c, m, cv, v), store(v, f, _), vPC(cv, v, h).
refset(c, m, h, f) :- mVC(c, m, cv, v), load(v, f, _), vPC(cv, v, h).
|};
  }

let who_points_to ~heap_label =
  {
    Programs.q_relations =
      {|output whoPointsTo (heap : H, field : F)
output whoDunnit (context : C, base : V, field : F, src : V)
|};
    q_rules =
      Printf.sprintf
        {|whoPointsTo(h, f) :- hP(h, f, %S).
whoDunnit(c, v1, f, v2) :- store(v1, f, v2), vPC(c, v2, %S).
|}
        heap_label heap_label;
  }

let combine a b =
  {
    Programs.q_relations = a.Programs.q_relations ^ b.Programs.q_relations;
    q_rules = a.Programs.q_rules ^ b.Programs.q_rules;
  }

let jce_vuln ~init_method =
  {
    Programs.q_relations = {|output fromString (heap : H)
output vuln (context : C, invoke : I)
|};
    q_rules =
      Printf.sprintf
        {|fromString(h) :- Mcls(m, "String"), Mret(m, v), vPC(_, v, h).
vuln(c, i) :- IEC(c, i, _, %S), actual(i, 1, v), vPC(c, v, h), fromString(h).
|}
        init_method;
  }

(* --- Store-backed evaluation ---

   The same questions answered directly from solved relations (fresh
   from an engine or loaded back from a Bddrel.Store) with plain
   relational algebra — no Datalog re-solve.  This is what the query
   daemon serves: a select+project over the persisted BDD is
   milliseconds, a cold solve is seconds.  Every intermediate is an
   unrooted handle in the caller's manager: the daemon's per-request
   [Bdd.reset] reclaims them at once. *)

(* Project the points-to relation down to one attribute after fixing
   another: the shared shape of the evaluators below. *)
let select_project m rel ~fix ~value ~keep =
  let proj = Relation.frozen_project m (Relation.frozen_select m rel fix value) keep in
  List.sort_uniq compare (List.map (fun t -> t.(0)) (Relation.frozen_tuples m proj))

let points_to m pt ~var = select_project m pt ~fix:"variable" ~value:var ~keep:[ "heap" ]

let pointed_by m pt ~heap = select_project m pt ~fix:"heap" ~value:heap ~keep:[ "variable" ]

(* Shared heaps of two variables, computed as a BDD intersection of the
   two projected heap sets (not a list intersection: the sets stay
   shared-structure until the final enumeration). *)
let alias_heaps m pt ~v1 ~v2 =
  let heaps v = Relation.frozen_project m (Relation.frozen_select m pt "variable" v) [ "heap" ] in
  let h1 = heaps v1 in
  let shared = Relation.frozen_inter m h1 (heaps v2) in
  List.sort_uniq compare (List.map (fun t -> t.(0)) (Relation.frozen_tuples m shared))

(* Mod/ref (heap, field) pairs of one method, any context: project the
   §5.4 [modset]/[refset] down from (context, method, heap, field). *)
let mod_ref_sites m rel ~meth =
  let proj = Relation.frozen_project m (Relation.frozen_select m rel "method" meth) [ "heap"; "field" ] in
  List.sort_uniq compare (List.map (fun t -> (t.(0), t.(1))) (Relation.frozen_tuples m proj))
