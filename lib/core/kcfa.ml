module Ir = Jir.Ir

type t = {
  program : Ir.t;
  reach : bool array;
  method_ctxs : (int, unit) Hashtbl.t array; (* per method: context set *)
  edges : Callgraph.edge list;
}

let ctx_of_site i = i + 2

let number p ~edges ~roots =
  let reach = Callgraph.reachable_methods p edges ~roots in
  let live = List.filter (fun (e : Callgraph.edge) -> reach.(e.Callgraph.caller) && reach.(e.Callgraph.callee)) edges in
  let method_ctxs = Array.init (Ir.num_methods p) (fun _ -> Hashtbl.create 4) in
  List.iter (fun r -> if reach.(r) then Hashtbl.replace method_ctxs.(r) 1 ()) roots;
  List.iter
    (fun (e : Callgraph.edge) -> Hashtbl.replace method_ctxs.(e.Callgraph.callee) (ctx_of_site e.Callgraph.site) ())
    live;
  { program = p; reach; method_ctxs; edges = live }

let csize t = Ir.num_invokes t.program + 2

let iec_tuples t =
  let out = ref [] in
  List.iter
    (fun (e : Callgraph.edge) ->
      Hashtbl.iter
        (fun c () -> out := (c, e.Callgraph.site, ctx_of_site e.Callgraph.site, e.Callgraph.callee) :: !out)
        t.method_ctxs.(e.Callgraph.caller))
    t.edges;
  List.sort_uniq compare !out

let mc_tuples t =
  let out = ref [] in
  Array.iteri (fun m ctxs -> Hashtbl.iter (fun c () -> out := (c, m) :: !out) ctxs) t.method_ctxs;
  List.sort compare !out
