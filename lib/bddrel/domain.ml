type t = {
  uid : int;
  name : string;
  size : int;
  bits : int;
  element_names : string array option;
  index : (string, int) Hashtbl.t option;
}

let counter = ref 0

let bits_for n =
  if n < 1 then invalid_arg "Domain.bits_for";
  let rec go b cap = if cap >= n then b else go (b + 1) (cap * 2) in
  go 1 2

let make ?element_names ~name ~size () =
  if size < 1 then invalid_arg "Domain.make: size must be positive";
  let index =
    match element_names with
    | None -> None
    | Some names ->
      if Array.length names < size then invalid_arg "Domain.make: element_names too short";
      let h = Hashtbl.create size in
      Array.iteri (fun i n -> if i < size && not (Hashtbl.mem h n) then Hashtbl.add h n i) names;
      Some h
  in
  incr counter;
  { uid = !counter; name; size; bits = bits_for size; element_names; index }

let name d = d.name
let size d = d.size
let bits d = d.bits
let element_names d = d.element_names

let element_name d i =
  match d.element_names with
  | Some names when i >= 0 && i < Array.length names -> names.(i)
  | Some _ | None -> string_of_int i

let element_index d s =
  let from_map =
    match d.index with
    | Some h -> Hashtbl.find_opt h s
    | None -> None
  in
  match from_map with
  | Some _ as r -> r
  | None -> (
    match int_of_string_opt s with
    | Some i when i >= 0 && i < d.size -> Some i
    | Some _ | None -> None)

let equal a b = a.uid = b.uid
