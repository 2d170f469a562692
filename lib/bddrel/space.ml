type block = { dom : Domain.t; instance : int; bits : int array }

type t = {
  man : Bdd.man;
  by_domain : (string, block list ref) Hashtbl.t; (* instance order *)
  mutable next_var : int;
}

let create ?node_hint ?cache_bits ?page_bits ?mem_cap_bytes ?spill_path () =
  {
    man = Bdd.create ?node_hint ?cache_bits ?page_bits ?max_bytes:mem_cap_bytes ?spill_path ~nvars:0 ();
    by_domain = Hashtbl.create 16;
    next_var = 0;
  }

let man s = s.man
let num_vars s = s.next_var
let cache_stats_by_class s = Bdd.cache_stats_by_class s.man

let domain_slot s (d : Domain.t) =
  match Hashtbl.find_opt s.by_domain (Domain.name d) with
  | Some r ->
    (match !r with
    | b :: _ when not (Domain.equal b.dom d) -> invalid_arg "Space: two distinct domains share a name"
    | _ -> r)
  | None ->
    let r = ref [] in
    Hashtbl.add s.by_domain (Domain.name d) r;
    r

let fresh_vars s n =
  let base = s.next_var in
  s.next_var <- base + n;
  Bdd.extend_vars s.man s.next_var;
  base

let alloc s d =
  let slot = domain_slot s d in
  let w = Domain.bits d in
  let base = fresh_vars s w in
  (* Most-significant bit first in the order tends to keep value-ordered
     data compact; bits array is LSB-first, so bit i sits at
     [base + w - 1 - i]. *)
  let bits = Array.init w (fun i -> base + w - 1 - i) in
  let b = { dom = d; instance = List.length !slot; bits } in
  slot := !slot @ [ b ];
  b

let alloc_interleaved s d k =
  if k < 1 then invalid_arg "Space.alloc_interleaved";
  let slot = domain_slot s d in
  let w = Domain.bits d in
  let base = fresh_vars s (w * k) in
  let first_instance = List.length !slot in
  (* Bit position b of instance j lives at [base + (w-1-b)*k + j]: all
     instances' most-significant bits adjacent, then the next bit, ... *)
  let blocks =
    Array.init k (fun j ->
        let bits = Array.init w (fun i -> base + ((w - 1 - i) * k) + j) in
        { dom = d; instance = first_instance + j; bits })
  in
  slot := !slot @ Array.to_list blocks;
  blocks

let instances s d =
  match Hashtbl.find_opt s.by_domain (Domain.name d) with
  | Some r -> !r
  | None -> []

let domains s =
  let ds = Hashtbl.fold (fun _ r acc -> match !r with b :: _ -> b.dom :: acc | [] -> acc) s.by_domain [] in
  List.sort (fun a b -> compare (Domain.name a) (Domain.name b)) ds

(* Domain {e sizes} are deliberately not part of the layout: a domain
   may grow within its bit width without moving any variable. *)
let layout s =
  List.concat_map (fun d -> List.map (fun b -> (Domain.name d, b.instance, b.bits)) (instances s d)) (domains s)

let layout_mismatch ~stored ~current =
  if num_vars stored <> num_vars current then
    Some (Printf.sprintf "%d variables stored, %d now" (num_vars stored) (num_vars current))
  else
    let s = layout stored and c = layout current in
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

let restore_block s d ~instance ~bits =
  let slot = domain_slot s d in
  if List.length !slot <> instance then
    invalid_arg
      (Printf.sprintf "Space.restore_block: %s instance %d restored out of order (next is %d)" (Domain.name d)
         instance (List.length !slot));
  if Array.length bits <> Domain.bits d then
    invalid_arg (Printf.sprintf "Space.restore_block: %s needs %d bits, got %d" (Domain.name d) (Domain.bits d) (Array.length bits));
  Array.iter (fun v -> if v < 0 then invalid_arg "Space.restore_block: negative variable") bits;
  let b = { dom = d; instance; bits } in
  slot := !slot @ [ b ];
  let top = Array.fold_left max (-1) bits in
  if top + 1 > s.next_var then s.next_var <- top + 1;
  Bdd.extend_vars s.man s.next_var;
  b

let instance s d i =
  let rec ensure () =
    let existing = instances s d in
    if List.length existing > i then List.nth existing i
    else begin
      ignore (alloc s d);
      ensure ()
    end
  in
  if i < 0 then invalid_arg "Space.instance";
  ensure ()

let cube s b = Bdd.cube_of_vars s.man (Array.to_list b.bits)
let cube_of_blocks s bs = Bdd.cube_of_vars s.man (List.concat_map (fun b -> Array.to_list b.bits) bs)

let const s b v =
  if v < 0 || v >= Domain.size b.dom then
    invalid_arg (Printf.sprintf "Space.const: %d out of range for %s" v (Domain.name b.dom));
  Bdd.const_value s.man ~bits:b.bits v

let check_same_domain a b =
  if not (Domain.equal a.dom b.dom) then invalid_arg "Space: blocks of different domains"

let equal_blocks s a b =
  check_same_domain a b;
  Bdd.equal_blocks s.man ~src:a.bits ~dst:b.bits

let range s b ~lo ~hi = Bdd.range s.man ~bits:b.bits ~lo ~hi

let add_const s ~src ~dst ~delta =
  check_same_domain src dst;
  Bdd.add_const s.man ~src:src.bits ~dst:dst.bits ~delta

let renaming s pairs =
  let var_pairs =
    List.concat_map
      (fun (src, dst) ->
        check_same_domain src dst;
        Array.to_list (Array.map2 (fun a b -> (a, b)) src.bits dst.bits))
      pairs
  in
  Bdd.make_map s.man var_pairs
