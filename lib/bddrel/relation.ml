type attr = { attr_name : string; block : Space.block }

type t = {
  rel_name : string;
  sp : Space.t;
  attributes : attr array;
  root : Bdd.t ref;
  mutable ver : int;
  mutable disposed : bool;
}

let blocks_disjoint (a : Space.block) (b : Space.block) = a.Space.bits != b.Space.bits && a.Space.bits <> b.Space.bits

let make sp ~name attrs =
  let arr = Array.of_list attrs in
  Array.iteri
    (fun i a ->
      Array.iteri
        (fun j b ->
          if i < j then begin
            if a.attr_name = b.attr_name then invalid_arg (Printf.sprintf "Relation.make %s: duplicate attribute %s" name a.attr_name);
            if not (blocks_disjoint a.block b.block) then
              invalid_arg (Printf.sprintf "Relation.make %s: attributes %s and %s share a block" name a.attr_name b.attr_name)
          end)
        arr)
    arr;
  let root = ref Bdd.bdd_false in
  Bdd.add_root (Space.man sp) root;
  { rel_name = name; sp; attributes = arr; root; ver = 0; disposed = false }

let name r = r.rel_name
let space r = r.sp
let attrs r = Array.to_list r.attributes
let arity r = Array.length r.attributes

let attr_named attributes n =
  match Array.find_opt (fun a -> a.attr_name = n) attributes with
  | Some a -> a
  | None -> raise Not_found

let find_attr r n = attr_named r.attributes n

let bdd r = !(r.root)

let set_bdd r b =
  if b <> !(r.root) then begin
    r.root := b;
    r.ver <- r.ver + 1
  end

let version r = r.ver

let dispose r =
  if not r.disposed then begin
    Bdd.remove_root (Space.man r.sp) r.root;
    r.root := Bdd.bdd_false;
    r.disposed <- true
  end

let man r = Space.man r.sp

let tuple_bdd r values =
  if Array.length values <> Array.length r.attributes then invalid_arg "Relation: tuple arity mismatch";
  let acc = ref Bdd.bdd_true in
  Array.iteri (fun i a -> acc := Bdd.mk_and (man r) !acc (Space.const r.sp a.block values.(i))) r.attributes;
  !acc

let add_tuple r values = set_bdd r (Bdd.mk_or (man r) !(r.root) (tuple_bdd r values))
let mem_tuple r values = Bdd.mk_and (man r) !(r.root) (tuple_bdd r values) <> Bdd.bdd_false

(* Bulk tuple load.  OR-ing tuple cubes into the root one at a time
   rebuilds an ever-growing BDD once per tuple, and every union walks
   structure the variable order does not share with the cube —
   quadratic-ish on big inputs.  Instead: write each tuple as its
   bit row in global variable order, sort the rows, and build the BDD
   as a trie aligned with that order, bottom-up.  Every [mk_ite]
   constructs one node over already-built children (the branch
   variable sits above both), so the whole load is linear in trie
   nodes.  The intermediates are unrooted, which is safe: GC only runs
   when asked ([Bdd.gc]), never inside an operation. *)
let set_tuples r tuples =
  match tuples with
  | [] -> ()
  | _ ->
    let m = man r in
    (* (variable, attribute index, bit index), globally order-sorted. *)
    let slots =
      Array.of_list
        (List.sort compare
           (List.concat
              (List.mapi
                 (fun ai a -> Array.to_list (Array.mapi (fun bi v -> (v, ai, bi)) a.block.Space.bits))
                 (Array.to_list r.attributes))))
    in
    let nbits = Array.length slots in
    let nattrs = Array.length r.attributes in
    let row values =
      if Array.length values <> nattrs then invalid_arg "Relation: tuple arity mismatch";
      Array.iteri
        (fun i a ->
          if values.(i) < 0 || values.(i) >= Domain.size a.block.Space.dom then
            invalid_arg (Printf.sprintf "Relation %s: %d out of range for %s" r.rel_name values.(i) a.attr_name))
        r.attributes;
      Array.init nbits (fun j ->
          let _, ai, bi = slots.(j) in
          (values.(ai) lsr bi) land 1 = 1)
    in
    let rows = List.sort_uniq compare (List.map row tuples) in
    let rec build depth rows =
      match rows with
      | [] -> Bdd.bdd_false
      | _ ->
        if depth = nbits then Bdd.bdd_true
        else
          let zeros, ones = List.partition (fun (rw : bool array) -> not rw.(depth)) rows in
          let lo = build (depth + 1) zeros and hi = build (depth + 1) ones in
          if lo = hi then lo
          else
            let v, _, _ = slots.(depth) in
            Bdd.mk_ite m (Bdd.ithvar m v) hi lo
    in
    set_bdd r (Bdd.mk_or m !(r.root) (build 0 rows))

let of_tuples sp ~name attrs tuples =
  let r = make sp ~name attrs in
  set_tuples r tuples;
  r

(* --- Frozen relation values -----------------------------------------

   A [frozen] is a relation's contents captured as a plain value: name,
   attrs, root handle.  It is immutable and shareable across domains.
   The read-only algebra below evaluates it on any manager that holds
   its handles: the live one, or a per-domain [Bdd.overlay] of a
   snapshot.  Results are allocated there, with no roots and no
   disposal.  The live relations' read-only operations run through the
   same code. *)

type frozen = { fr_name : string; fr_attrs : attr array; fr_bdd : Bdd.t }

let freeze r = { fr_name = r.rel_name; fr_attrs = r.attributes; fr_bdd = !(r.root) }

let frozen_attrs fr = Array.to_list fr.fr_attrs
let frozen_arity fr = Array.length fr.fr_attrs

let frozen_find_attr fr n = attr_named fr.fr_attrs n

let frozen_select m fr attr_name v =
  let a = frozen_find_attr fr attr_name in
  let dom = a.block.Space.dom in
  if v < 0 || v >= Domain.size dom then
    invalid_arg (Printf.sprintf "Relation.select: %d out of range for %s" v (Domain.name dom));
  { fr with fr_bdd = Bdd.mk_and m fr.fr_bdd (Bdd.const_value m ~bits:a.block.Space.bits v) }

let frozen_project m fr keep =
  let kept = List.map (frozen_find_attr fr) keep in
  let away =
    List.filter (fun a -> not (List.exists (fun k -> k.attr_name = a.attr_name) kept)) (frozen_attrs fr)
  in
  let cube = Bdd.cube_of_vars m (List.concat_map (fun a -> Array.to_list a.block.Space.bits) away) in
  { fr_name = fr.fr_name; fr_attrs = Array.of_list kept; fr_bdd = Bdd.exist m ~cube fr.fr_bdd }

let same_attrs a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> x.attr_name = y.attr_name && x.block == y.block) a b

let frozen_inter m a b =
  if not (same_attrs a.fr_attrs b.fr_attrs) then invalid_arg "Relation.inter: schema mismatch";
  { a with fr_bdd = Bdd.mk_and m a.fr_bdd b.fr_bdd }

(* Sorted variable array covering all attributes, plus for each
   attribute and bit the index of that variable in the sorted array. *)
let var_layout attributes =
  let all = Array.concat (Array.to_list (Array.map (fun a -> a.block.Space.bits) attributes)) in
  let sorted = Array.copy all in
  Array.sort compare sorted;
  let pos = Hashtbl.create (Array.length sorted) in
  Array.iteri (fun i v -> Hashtbl.replace pos v i) sorted;
  let index = Array.map (fun a -> Array.map (fun v -> Hashtbl.find pos v) a.block.Space.bits) attributes in
  (sorted, index)

let frozen_iter_tuples m fr yield =
  let sorted, index = var_layout fr.fr_attrs in
  let n_attrs = Array.length fr.fr_attrs in
  Bdd.iter_sat m ~vars:sorted
    (fun assignment ->
      let tuple = Array.make n_attrs 0 in
      let in_range = ref true in
      for i = 0 to n_attrs - 1 do
        let bits = index.(i) in
        let v = ref 0 in
        for b = Array.length bits - 1 downto 0 do
          v := (!v * 2) lor if assignment.(bits.(b)) then 1 else 0
        done;
        tuple.(i) <- !v;
        (* Assignments encoding values beyond the domain size are
           unreachable if writers respect Space.const's range check,
           but guard anyway. *)
        if !v >= Domain.size fr.fr_attrs.(i).block.Space.dom then in_range := false
      done;
      if !in_range then yield tuple)
    fr.fr_bdd

let frozen_tuples m fr =
  let acc = ref [] in
  frozen_iter_tuples m fr (fun t -> acc := t :: !acc);
  List.rev !acc

let frozen_count m fr =
  let sorted, _ = var_layout fr.fr_attrs in
  Bdd.satcount m ~vars:sorted fr.fr_bdd

(* --- Live relations' reads, through the frozen code --- *)

let iter_tuples r yield = frozen_iter_tuples (man r) (freeze r) yield

let fold_tuples r ~init ~f =
  let acc = ref init in
  iter_tuples r (fun t -> acc := f !acc t);
  !acc

let tuples r = frozen_tuples (man r) (freeze r)
let count r = frozen_count (man r) (freeze r)

let count_big r =
  let sorted, _ = var_layout r.attributes in
  Bdd.satcount_big (man r) ~vars:sorted !(r.root)

let is_empty r = !(r.root) = Bdd.bdd_false

let same_schema a b = same_attrs a.attributes b.attributes

(* A live relation in [src]'s space holding a frozen result. *)
let thaw src fr =
  let r = make src.sp ~name:fr.fr_name (frozen_attrs fr) in
  set_bdd r fr.fr_bdd;
  r

let with_bdd ?name src b =
  thaw src { fr_name = Option.value name ~default:src.rel_name; fr_attrs = src.attributes; fr_bdd = b }

let copy ?name r = with_bdd ?name r !(r.root)

let union a b =
  if not (same_schema a b) then invalid_arg "Relation.union: schema mismatch";
  with_bdd a (Bdd.mk_or (man a) !(a.root) !(b.root))

let union_in_place dst src =
  if not (same_schema dst src) then invalid_arg "Relation.union_in_place: schema mismatch";
  set_bdd dst (Bdd.mk_or (man dst) !(dst.root) !(src.root))

let diff a b =
  if not (same_schema a b) then invalid_arg "Relation.diff: schema mismatch";
  with_bdd a (Bdd.mk_diff (man a) !(a.root) !(b.root))

let inter a b = thaw a (frozen_inter (man a) (freeze a) (freeze b))

let equal a b =
  if not (same_schema a b) then invalid_arg "Relation.equal: schema mismatch";
  !(a.root) = !(b.root)

let select r attr_name v = thaw r (frozen_select (man r) (freeze r) attr_name v)
let project r keep = thaw r (frozen_project (man r) (freeze r) keep)

let project_away r names =
  List.iter (fun n -> ignore (find_attr r n)) names;
  let keep = List.filter (fun a -> not (List.mem a.attr_name names)) (attrs r) in
  project r (List.map (fun a -> a.attr_name) keep)

let rename ?name r moves =
  let moved_old = List.map (fun (o, _, _) -> o) moves in
  List.iter (fun o -> ignore (find_attr r o)) moved_old;
  let new_attrs =
    Array.to_list
      (Array.map
         (fun a ->
           match List.find_opt (fun (o, _, _) -> o = a.attr_name) moves with
           | Some (_, n, blk) -> { attr_name = n; block = blk }
           | None -> a)
         r.attributes)
  in
  let pairs =
    List.filter_map
      (fun (o, _, blk) ->
        let old_attr = find_attr r o in
        if old_attr.block == blk then None else Some (old_attr.block, blk))
      moves
  in
  let b = if pairs = [] then !(r.root) else Bdd.replace (man r) (Space.renaming r.sp pairs) !(r.root) in
  let r' = make r.sp ~name:(Option.value name ~default:r.rel_name) new_attrs in
  set_bdd r' b;
  r'

let join_attrs a b =
  (* Shared attributes must agree on blocks; all blocks in the result
     must be pairwise distinct. *)
  let out = ref (attrs a) in
  List.iter
    (fun battr ->
      match List.find_opt (fun x -> x.attr_name = battr.attr_name) !out with
      | Some shared ->
        if shared.block != battr.block then
          invalid_arg (Printf.sprintf "Relation.join: attribute %s stored in different blocks" battr.attr_name)
      | None -> out := !out @ [ battr ])
    (attrs b);
  !out

let join a b =
  let out_attrs = join_attrs a b in
  let r = make a.sp ~name:(a.rel_name ^ "*" ^ b.rel_name) out_attrs in
  set_bdd r (Bdd.mk_and (man a) !(a.root) !(b.root));
  r

let compose a b away =
  let out_attrs = join_attrs a b in
  let away_attrs =
    List.map
      (fun n ->
        match List.find_opt (fun x -> x.attr_name = n) out_attrs with
        | Some x -> x
        | None -> invalid_arg (Printf.sprintf "Relation.compose: unknown attribute %s" n))
      away
  in
  let keep = List.filter (fun x -> not (List.mem x.attr_name away)) out_attrs in
  let cube = Space.cube_of_blocks a.sp (List.map (fun x -> x.block) away_attrs) in
  let r = make a.sp ~name:(a.rel_name ^ "*" ^ b.rel_name) keep in
  set_bdd r (Bdd.relprod (man a) ~cube !(a.root) !(b.root));
  r
