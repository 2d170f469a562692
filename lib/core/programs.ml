module Factgen = Jir.Factgen

type query_suffix = { q_relations : string; q_rules : string }

let no_query = { q_relations = ""; q_rules = "" }

let common_relations =
  {|input vP0 (variable : V, heap : H)
input vP0g (variable : V, heap : H)
input copyAssign (dest : V, source : V)
input store (base : V, field : F, source : V)
input load (base : V, field : F, dest : V)
input vT (variable : V, type : T)
input hT (heap : H, type : T)
input aT (supertype : T, subtype : T)
input cha (type : T, name : N, target : M)
input chaT (type : T, name : N, target : M)
input actual (invoke : I, param : Z, var : V)
input formal (method : M, param : Z, var : V)
input IE0 (invoke : I, target : M)
input mI (method : M, invoke : I, name : N)
input Mret (method : M, var : V)
input Mthr (method : M, var : V)
input Iret (invoke : I, var : V)
input mV (method : M, var : V)
input mH (method : M, heap : H)
input syncs (var : V)
input Mentry (method : M)
input hRun (heap : H, method : M)
input Mcls (method : M, type : T)
|}

let input_relations fg =
  List.filter
    (fun (name, _) ->
      (* Every relation the common section declares. *)
      List.mem name
        [
          "vP0"; "vP0g"; "copyAssign"; "store"; "load"; "vT"; "hT"; "aT"; "cha"; "chaT"; "actual"; "formal"; "IE0";
          "mI"; "Mret"; "Mthr"; "Iret"; "mV"; "mH"; "syncs"; "Mentry"; "hRun"; "Mcls";
        ])
    fg.Factgen.relations

(* The call-graph and assignment rules shared by the CHA-based
   algorithms.  [IEcha] resolves virtual sites against the receiver's
   declared type (class-hierarchy analysis, §2.2). *)
let cha_call_graph_rules =
  {|IEcha(i, m) :- IE0(i, m).
IEcha(i, m) :- mI(_, i, n), actual(i, 0, v), vT(v, tv), aT(tv, t), cha(t, n, m).
IEcha(i, m) :- mI(_, i, n), actual(i, 0, v), vT(v, tv), aT(tv, t), chaT(t, n, m).
assign(v1, v2) :- copyAssign(v1, v2).
assign(v1, v2) :- IEcha(i, m), formal(m, z, v1), actual(i, z, v2).
assign(v1, v2) :- IEcha(i, m), Iret(i, v1), Mret(m, v2).
assign(v1, v2) :- IEcha(i, m2), mI(m1, i, _), Mthr(m1, v1), Mthr(m2, v2).
|}

(* [var_order] goes on the blank line before RELATIONS, so adding it
   moves no rule's line number. *)
let mk ?(query = no_query) ?(var_order = "") fg ~extra_domains ~relations ~rules =
  Printf.sprintf "DOMAINS\n%s%s%s\nRELATIONS\n%s%s%s\nRULES\n%s\n%s" (Factgen.domains_decl fg) extra_domains var_order
    common_relations relations query.q_relations rules query.q_rules

(* bddbddb's variable order for the points-to programs,
   N0_F0_I0_M1_M0_V1xV0_VC2xVC1xVC0_T0_Z0_T1_H0_H1, without its
   context domain.  The join domains I, M and Z sit above the V bits
   the rules keep, so [assign]'s joins over invocation edges stay
   small (§6.4: the order matters).  Algorithm 5 and its relatives
   keep declaration order. *)
let ci_var_order = {|.bddvarorder "N F I M V T Z H"|}

(* Algorithm 1: context-insensitive, precomputed (CHA) call graph, no
   type filtering. *)
let algo1 ?query fg =
  mk ?query ~var_order:ci_var_order fg ~extra_domains:""
    ~relations:
      {|IEcha (invoke : I, target : M)
assign (dest : V, source : V)
output vP (variable : V, heap : H)
output hP (base : H, field : F, target : H)
|}
    ~rules:
      (cha_call_graph_rules
      ^ {|vP(v, h) :- vP0(v, h).
vP(v, h) :- vP0g(v, h).
vP(v1, h) :- assign(v1, v2), vP(v2, h).
hP(h1, f, h2) :- store(v1, f, v2), vP(v1, h1), vP(v2, h2).
vP(v2, h2) :- load(v1, f, v2), vP(v1, h1), hP(h1, f, h2).
|})

(* Algorithm 2: Algorithm 1 plus the type filter (rules (5)-(9)). *)
let algo2 ?query fg =
  mk ?query ~var_order:ci_var_order fg ~extra_domains:""
    ~relations:
      {|IEcha (invoke : I, target : M)
assign (dest : V, source : V)
vPfilter (variable : V, heap : H)
output vP (variable : V, heap : H)
output hP (base : H, field : F, target : H)
|}
    ~rules:
      (cha_call_graph_rules
      ^ {|vPfilter(v, h) :- vT(v, tv), hT(h, th), aT(tv, th).
vP(v, h) :- vP0(v, h).
vP(v, h) :- vP0g(v, h).
vP(v1, h) :- assign(v1, v2), vP(v2, h), vPfilter(v1, h).
hP(h1, f, h2) :- store(v1, f, v2), vP(v1, h1), vP(v2, h2).
vP(v2, h2) :- load(v1, f, v2), vP(v1, h1), hP(h1, f, h2), vPfilter(v2, h2).
|})

(* Algorithm 3: on-the-fly call graph discovery (rules (10)-(12)):
   virtual sites are resolved against the points-to sets of their
   receivers as those are discovered. *)
let algo3 ?query fg =
  mk ?query ~var_order:ci_var_order fg ~extra_domains:""
    ~relations:
      {|assign (dest : V, source : V)
vPfilter (variable : V, heap : H)
output IE (invoke : I, target : M)
output vP (variable : V, heap : H)
output hP (base : H, field : F, target : H)
|}
    ~rules:
      {|vPfilter(v, h) :- vT(v, tv), hT(h, th), aT(tv, th).
IE(i, m) :- IE0(i, m).
IE(i, m2) :- mI(_, i, n), actual(i, 0, v), vP(v, h), hT(h, t), cha(t, n, m2).
IE(i, m2) :- mI(_, i, n), actual(i, 0, v), vP(v, h), hT(h, t), chaT(t, n, m2).
assign(v1, v2) :- copyAssign(v1, v2).
assign(v1, v2) :- IE(i, m), formal(m, z, v1), actual(i, z, v2).
assign(v1, v2) :- IE(i, m), Iret(i, v1), Mret(m, v2).
assign(v1, v2) :- IE(i, m2), mI(m1, i, _), Mthr(m1, v1), Mthr(m2, v2).
vP(v, h) :- vP0(v, h).
vP(v, h) :- vP0g(v, h).
vP(v1, h) :- assign(v1, v2), vP(v2, h), vPfilter(v1, h).
hP(h1, f, h2) :- store(v1, f, v2), vP(v1, h1), vP(v2, h2).
vP(v2, h2) :- load(v1, f, v2), vP(v1, h1), hP(h1, f, h2), vPfilter(v2, h2).
|}

(* Algorithm 5: context-sensitive points-to over the cloned call graph
   (rules (13)-(18)).  IEC and mC come from Context (Algorithm 4);
   hC(c,h) stands for the paper's IEC(c,h,_,_) use of H ⊆ I. *)
let algo5 ?query fg ~csize =
  mk ?query fg
    ~extra_domains:(Printf.sprintf "C %d\n" csize)
    ~relations:
      {|input IEC (caller : C, invoke : I, callee : C, tgt : M)
input mC (context : C, method : M)
assignC (destc : C, dest : V, srcc : C, src : V)
hC (context : C, heap : H)
anyC (context : C)
vPfilter (variable : V, heap : H)
output vPC (context : C, variable : V, heap : H)
output hP (base : H, field : F, target : H)
|}
    ~rules:
      {|vPfilter(v, h) :- vT(v, tv), hT(h, th), aT(tv, th).
hC(c, h) :- mC(c, m), mH(m, h).
anyC(c) :- mC(c, _).
vPC(c, v, h) :- vP0(v, h), hC(c, h).
vPC(c, v, h) :- vP0g(v, h), anyC(c).
# Local copies (casts, throw/catch edges) stay within their clone.
vPC(c, v1, h) :- copyAssign(v1, v2), vPC(c, v2, h), vPfilter(v1, h).
vPC(c1, v1, h) :- assignC(c1, v1, c2, v2), vPC(c2, v2, h), vPfilter(v1, h).
hP(h1, f, h2) :- store(v1, f, v2), vPC(c, v1, h1), vPC(c, v2, h2).
vPC(c, v2, h2) :- load(v1, f, v2), vPC(c, v1, h1), hP(h1, f, h2), vPfilter(v2, h2).
assignC(c1, v1, c2, v2) :- IEC(c2, i, c1, m), formal(m, z, v1), actual(i, z, v2).
assignC(c2, v1, c1, v2) :- IEC(c2, i, c1, m), Iret(i, v1), Mret(m, v2).
assignC(c2, v1, c1, v2) :- IEC(c2, i, c1, m2), mI(m1, i, _), Mthr(m1, v1), Mthr(m2, v2).
|}

(* Algorithm 6: context-sensitive type analysis (rules (19)-(24)).
   Same cloned graph, but heap objects are abstracted to their types.
   The paper's context-unbound heads of rules (22)/(23) are bound via
   the defining method's contexts. *)
let algo6 ?query fg ~csize =
  mk ?query fg
    ~extra_domains:(Printf.sprintf "C %d\n" csize)
    ~relations:
      {|input IEC (caller : C, invoke : I, callee : C, tgt : M)
input mC (context : C, method : M)
assignC (destc : C, dest : V, srcc : C, src : V)
hC (context : C, heap : H)
anyC (context : C)
vTfilter (variable : V, type : T)
output vTC (context : C, variable : V, type : T)
output fT (field : F, target : T)
|}
    ~rules:
      {|vTfilter(v, t) :- vT(v, tv), aT(tv, t).
hC(c, h) :- mC(c, m), mH(m, h).
anyC(c) :- mC(c, _).
vTC(c, v, t) :- vP0(v, h), hC(c, h), hT(h, t).
vTC(c, v, t) :- vP0g(v, h), anyC(c), hT(h, t).
vTC(c, v1, t) :- copyAssign(v1, v2), vTC(c, v2, t), vTfilter(v1, t).
vTC(c1, v1, t) :- assignC(c1, v1, c2, v2), vTC(c2, v2, t), vTfilter(v1, t).
fT(f, t) :- store(_, f, v2), vTC(_, v2, t).
vTC(c, v, t) :- load(_, f, v), fT(f, t), vTfilter(v, t), mV(m, v), mC(c, m).
assignC(c1, v1, c2, v2) :- IEC(c2, i, c1, m), formal(m, z, v1), actual(i, z, v2).
assignC(c2, v1, c1, v2) :- IEC(c2, i, c1, m), Iret(i, v1), Mret(m, v2).
assignC(c2, v1, c1, v2) :- IEC(c2, i, c1, m2), mI(m1, i, _), Mthr(m1, v1), Mthr(m2, v2).
|}

(* Algorithm 7: thread-sensitive points-to (rules (25)-(30)) plus the
   escaped / captured / neededSyncs queries of §5.6.  The call graph
   here is CHA without the thread-start matching: each thread context
   is rooted solely at its own run() clone (HT/vP0T, computed by the
   driver). *)
let algo7 ?query fg ~csize =
  mk ?query fg
    ~extra_domains:(Printf.sprintf "C %d\n" csize)
    ~relations:
      {|input HT (context : C, heap : H)
input vP0T (cv : C, variable : V, ch : C, heap : H)
IEcha (invoke : I, target : M)
assign (dest : V, source : V)
vPfilter (variable : V, heap : H)
output vPT (cv : C, variable : V, ch : C, heap : H)
output hPT (cb : C, base : H, field : F, ct : C, target : H)
output escaped (context : C, heap : H)
output captured (context : C, heap : H)
output neededSyncs (context : C, var : V)
|}
    ~rules:
      {|vPfilter(v, h) :- vT(v, tv), hT(h, th), aT(tv, th).
IEcha(i, m) :- IE0(i, m).
IEcha(i, m) :- mI(_, i, n), actual(i, 0, v), vT(v, tv), aT(tv, t), cha(t, n, m).
assign(v1, v2) :- copyAssign(v1, v2).
assign(v1, v2) :- IEcha(i, m), formal(m, z, v1), actual(i, z, v2).
assign(v1, v2) :- IEcha(i, m), Iret(i, v1), Mret(m, v2).
assign(v1, v2) :- IEcha(i, m2), mI(m1, i, _), Mthr(m1, v1), Mthr(m2, v2).
vPT(c1, v, c2, h) :- vP0T(c1, v, c2, h).
vPT(c, v, c, h) :- vP0(v, h), HT(c, h).
vPT(c2, v1, ch, h) :- assign(v1, v2), vPT(c2, v2, ch, h), vPfilter(v1, h).
hPT(c1, h1, f, c2, h2) :- store(v1, f, v2), vPT(c, v1, c1, h1), vPT(c, v2, c2, h2).
vPT(c, v2, c2, h2) :- load(v1, f, v2), vPT(c, v1, c1, h1), hPT(c1, h1, f, c2, h2), vPfilter(v2, h2).
escaped(c, h) :- vPT(cv, _, c, h), cv != c.
captured(c, h) :- vPT(c, _, c, h), !escaped(c, h).
neededSyncs(c, v) :- syncs(v), vPT(c, v, ch, h), escaped(ch, h).
|}

(* §4.2's closing variant: number contexts over a conservative (CHA)
   call graph, then discover which context-sensitive invocation edges
   are actually warranted by the points-to results.  The paper notes
   this is "of primarily academic interest" because the call graph
   rarely improves over Algorithm 3's; it is here for completeness and
   the precision ablation. *)
let algo5_otf ?query fg ~csize =
  mk ?query fg
    ~extra_domains:(Printf.sprintf "C %d\n" csize)
    ~relations:
      {|input IEC (caller : C, invoke : I, callee : C, tgt : M)
input mC (context : C, method : M)
output IECd (caller : C, invoke : I, callee : C, tgt : M)
assignC (destc : C, dest : V, srcc : C, src : V)
hC (context : C, heap : H)
anyC (context : C)
vPfilter (variable : V, heap : H)
output vPC (context : C, variable : V, heap : H)
output hP (base : H, field : F, target : H)
|}
    ~rules:
      {|vPfilter(v, h) :- vT(v, tv), hT(h, th), aT(tv, th).
hC(c, h) :- mC(c, m), mH(m, h).
anyC(c) :- mC(c, _).
IECd(c1, i, c2, m) :- IEC(c1, i, c2, m), IE0(i, m).
IECd(c1, i, c2, m) :- IEC(c1, i, c2, m), mI(_, i, n), actual(i, 0, v), vPC(c1, v, h), hT(h, t), cha(t, n, m).
IECd(c1, i, c2, m) :- IEC(c1, i, c2, m), mI(_, i, n), actual(i, 0, v), vPC(c1, v, h), hT(h, t), chaT(t, n, m).
vPC(c, v, h) :- vP0(v, h), hC(c, h).
vPC(c, v, h) :- vP0g(v, h), anyC(c).
vPC(c, v1, h) :- copyAssign(v1, v2), vPC(c, v2, h), vPfilter(v1, h).
vPC(c1, v1, h) :- assignC(c1, v1, c2, v2), vPC(c2, v2, h), vPfilter(v1, h).
hP(h1, f, h2) :- store(v1, f, v2), vPC(c, v1, h1), vPC(c, v2, h2).
vPC(c, v2, h2) :- load(v1, f, v2), vPC(c, v1, h1), hP(h1, f, h2), vPfilter(v2, h2).
assignC(c1, v1, c2, v2) :- IECd(c2, i, c1, m), formal(m, z, v1), actual(i, z, v2).
assignC(c2, v1, c1, v2) :- IECd(c2, i, c1, m), Iret(i, v1), Mret(m, v2).
assignC(c2, v1, c1, v2) :- IECd(c2, i, c1, m2), mI(m1, i, _), Mthr(m1, v1), Mthr(m2, v2).
|}
