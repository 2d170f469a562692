module Ir = Jir.Ir

type numbered_edge = {
  ne_edge : Callgraph.edge;
  ne_k : int; (* clamped caller context count *)
  ne_offset : int; (* callee context = caller context + offset *)
  ne_intra : bool; (* same-SCC edge: clone i calls clone i *)
}

type t = {
  program : Ir.t;
  reach : bool array;
  comp : int array; (* method -> component, only meaningful if reachable *)
  counts_exact : Bignat.t array; (* per component *)
  counts : int array; (* clamped *)
  numbered : numbered_edge list;
  cap : int;
  hit_cap : bool;
}

let number ?(max_bits = 61) p ~edges ~roots =
  if max_bits < 1 || max_bits > 61 then invalid_arg "Context.number: max_bits must be in [1, 61]";
  let cap = (1 lsl max_bits) - 1 in
  let cap_big = Bignat.of_int cap in
  let reach = Callgraph.reachable_methods p edges ~roots in
  let live_edges =
    List.filter (fun (e : Callgraph.edge) -> reach.(e.Callgraph.caller) && reach.(e.Callgraph.callee)) edges
  in
  let g = Graphutil.make (Ir.num_methods p) (List.map (fun e -> (e.Callgraph.caller, e.Callgraph.callee)) live_edges) in
  let comp, members = Graphutil.scc g in
  let nsccs = Array.length members in
  (* Incoming cross-component edges per component, deterministic order. *)
  let incoming = Array.make nsccs [] in
  let intra = ref [] in
  List.iter
    (fun (e : Callgraph.edge) ->
      let cs = comp.(e.Callgraph.caller) and cd = comp.(e.Callgraph.callee) in
      if cs = cd then intra := e :: !intra else incoming.(cd) <- e :: incoming.(cd))
    live_edges;
  let edge_order (a : Callgraph.edge) (b : Callgraph.edge) =
    compare (a.Callgraph.site, a.Callgraph.caller, a.Callgraph.callee) (b.Callgraph.site, b.Callgraph.caller, b.Callgraph.callee)
  in
  Array.iteri (fun i l -> incoming.(i) <- List.sort edge_order l) incoming;
  let has_root = Array.make nsccs false in
  List.iter (fun r -> if reach.(r) then has_root.(comp.(r)) <- true) roots;
  let is_reachable_scc = Array.make nsccs false in
  Array.iteri (fun m r -> if r then is_reachable_scc.(comp.(m)) <- true) reach;
  (* Counts in dependency order.  Tarjan numbers a component after the
     components it reaches, so callers have larger indices than their
     callees; descending index order is therefore topological. *)
  let counts_exact = Array.make nsccs Bignat.zero in
  let counts = Array.make nsccs 0 in
  let numbered = ref [] in
  let hit_cap = ref false in
  for c = nsccs - 1 downto 0 do
    if is_reachable_scc.(c) then begin
      (* Clamped numbering drives the actual clone ranges; exact counts
         are kept alongside for reporting. *)
      let offset = ref (if has_root.(c) then 1 else 0) in
      let exact = ref (if has_root.(c) then Bignat.one else Bignat.zero) in
      List.iter
        (fun (e : Callgraph.edge) ->
          let k = counts.(comp.(e.Callgraph.caller)) in
          numbered := { ne_edge = e; ne_k = k; ne_offset = !offset; ne_intra = false } :: !numbered;
          offset := min cap (!offset + k);
          exact := Bignat.add !exact counts_exact.(comp.(e.Callgraph.caller)))
        incoming.(c);
      counts_exact.(c) <- !exact;
      if Bignat.compare !exact cap_big > 0 then hit_cap := true;
      counts.(c) <-
        (match Bignat.to_int_opt (Bignat.min !exact cap_big) with
        | Some v -> min v cap
        | None -> cap)
    end
  done;
  (* Intra-component edges: clone i calls clone i. *)
  List.iter
    (fun (e : Callgraph.edge) ->
      let k = counts.(comp.(e.Callgraph.caller)) in
      numbered := { ne_edge = e; ne_k = k; ne_offset = 0; ne_intra = true } :: !numbered)
    !intra;
  { program = p; reach; comp; counts_exact; counts; numbered = List.rev !numbered; cap; hit_cap = !hit_cap }

let scc_of_method t m = if t.reach.(m) then Some t.comp.(m) else None
let method_contexts t m = if t.reach.(m) then t.counts.(t.comp.(m)) else 0
let method_contexts_exact t m = if t.reach.(m) then t.counts_exact.(t.comp.(m)) else Bignat.zero
let merged t = t.hit_cap

let total_paths t =
  let total = ref Bignat.zero in
  Array.iteri (fun m r -> if r then total := Bignat.add !total t.counts_exact.(t.comp.(m))) t.reach;
  !total

let max_contexts t =
  let best = ref Bignat.zero in
  Array.iter (fun c -> best := Bignat.max !best c) t.counts_exact;
  !best

let csize t =
  let m = Array.fold_left max 0 t.counts in
  max 2 (m + 1)

(* The BDD for one numbered edge over (caller, callee) context blocks:
   callers 1..k with callee = caller + offset, except that callers
   mapping beyond the cap are merged into the top context. *)
let edge_context_bdd t sp ~caller ~callee ne =
  let man = Space.man sp in
  if ne.ne_k = 0 then Bdd.bdd_false
  else if ne.ne_intra then
    Bdd.mk_and man (Space.range sp caller ~lo:1 ~hi:ne.ne_k) (Space.equal_blocks sp caller callee)
  else begin
    let cap = t.cap in
    let straight_hi = min ne.ne_k (cap - ne.ne_offset) in
    let straight =
      if straight_hi >= 1 then
        Bdd.mk_and man
          (Space.range sp caller ~lo:1 ~hi:straight_hi)
          (Space.add_const sp ~src:caller ~dst:callee ~delta:ne.ne_offset)
      else Bdd.bdd_false
    in
    let overflow =
      if straight_hi < ne.ne_k then
        Bdd.mk_and man
          (Space.range sp caller ~lo:(max 1 (straight_hi + 1)) ~hi:ne.ne_k)
          (Space.const sp callee cap)
      else Bdd.bdd_false
    in
    Bdd.mk_or man straight overflow
  end

let iec_bdd t sp ~caller ~invoke ~callee ~target =
  let man = Space.man sp in
  let acc = ref Bdd.bdd_false in
  List.iter
    (fun ne ->
      let ctx = edge_context_bdd t sp ~caller ~callee ne in
      if ctx <> Bdd.bdd_false then begin
        let b =
          Bdd.mk_and man ctx
            (Bdd.mk_and man
               (Space.const sp invoke ne.ne_edge.Callgraph.site)
               (Space.const sp target ne.ne_edge.Callgraph.callee))
        in
        acc := Bdd.mk_or man !acc b
      end)
    t.numbered;
  !acc

let iec_tuples t =
  let out = ref [] in
  List.iter
    (fun ne ->
      for x = 1 to ne.ne_k do
        let callee_ctx = if ne.ne_intra then x else min t.cap (x + ne.ne_offset) in
        out := (x, ne.ne_edge.Callgraph.site, callee_ctx, ne.ne_edge.Callgraph.callee) :: !out
      done)
    t.numbered;
  List.sort_uniq compare !out

let mc_tuples t =
  let out = ref [] in
  for m = 0 to Ir.num_methods t.program - 1 do
    let k = method_contexts t m in
    for c = 1 to k do
      out := (c, m) :: !out
    done
  done;
  List.sort compare !out

let mc_bdd t sp ~context ~target =
  let man = Space.man sp in
  let acc = ref Bdd.bdd_false in
  for m = 0 to Ir.num_methods t.program - 1 do
    let k = method_contexts t m in
    if k > 0 then
      acc :=
        Bdd.mk_or man !acc (Bdd.mk_and man (Space.range sp context ~lo:1 ~hi:k) (Space.const sp target m))
  done;
  !acc
