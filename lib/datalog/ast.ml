type term = Var of string | Const of string | Wildcard

type atom = { pred : string; args : term list }

type literal = Pos of atom | Neg of atom | Cmp of term * cmp_op * term
and cmp_op = Eq | Neq

type pos = { file : string; line : int }

type rule = { head : atom; body : literal list; rule_pos : pos option }
type domain_decl = { dom_name : string; dom_size : int; dom_map : string option }
type rel_kind = Input | Output | Internal
type rel_decl = { rel_name : string; rel_kind : rel_kind; rel_attrs : (string * string) list }
type program = {
  domains : domain_decl list;
  var_order : string list option;
  relations : rel_decl list;
  rules : rule list;
}

let domain_order p =
  let declared = List.map (fun d -> d.dom_name) p.domains in
  match p.var_order with
  | None -> declared
  | Some order -> order @ List.filter (fun d -> not (List.mem d order)) declared

let vars_of_terms terms =
  List.fold_left
    (fun acc t ->
      match t with
      | Var v when not (List.mem v acc) -> acc @ [ v ]
      | Var _ | Const _ | Wildcard -> acc)
    [] terms

let vars_of_atom a = vars_of_terms a.args

let vars_of_literal = function
  | Pos a | Neg a -> vars_of_atom a
  | Cmp (l, _, r) -> vars_of_terms [ l; r ]

let vars_of_rule r =
  List.fold_left
    (fun acc l -> List.fold_left (fun acc v -> if List.mem v acc then acc else acc @ [ v ]) acc (vars_of_literal l))
    (vars_of_atom r.head) r.body

let pp_pos fmt p = Format.fprintf fmt "%s:%d" p.file p.line

(* "file:line: " when the rule carries a position, nothing otherwise —
   the prefix every rule-level diagnostic uses. *)
let pp_pos_prefix fmt r =
  match r.rule_pos with
  | Some p -> Format.fprintf fmt "%a: " pp_pos p
  | None -> ()

let pp_term fmt = function
  | Var v -> Format.pp_print_string fmt v
  | Const c -> Format.fprintf fmt "%S" c
  | Wildcard -> Format.pp_print_string fmt "_"

let pp_atom fmt a =
  Format.fprintf fmt "%s(%a)" a.pred (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f ", ") pp_term) a.args

let pp_cmp_op fmt = function
  | Eq -> Format.pp_print_string fmt "="
  | Neq -> Format.pp_print_string fmt "!="

let pp_literal fmt = function
  | Pos a -> pp_atom fmt a
  | Neg a -> Format.fprintf fmt "!%a" pp_atom a
  | Cmp (l, op, r) -> Format.fprintf fmt "%a %a %a" pp_term l pp_cmp_op op pp_term r

let pp_rule fmt r =
  match r.body with
  | [] -> Format.fprintf fmt "%a." pp_atom r.head
  | body ->
    Format.fprintf fmt "%a :- %a." pp_atom r.head
      (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f ", ") pp_literal)
      body

let pp_program fmt p =
  Format.fprintf fmt "DOMAINS@.";
  List.iter
    (fun d ->
      match d.dom_map with
      | Some m -> Format.fprintf fmt "%s %d %S@." d.dom_name d.dom_size m
      | None -> Format.fprintf fmt "%s %d@." d.dom_name d.dom_size)
    p.domains;
  (match p.var_order with
  | Some order -> Format.fprintf fmt ".bddvarorder %S@." (String.concat " " order)
  | None -> ());
  Format.fprintf fmt "@.RELATIONS@.";
  List.iter
    (fun r ->
      let kind =
        match r.rel_kind with
        | Input -> "input "
        | Output -> "output "
        | Internal -> ""
      in
      Format.fprintf fmt "%s%s (%a)@." kind r.rel_name
        (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f ", ") (fun f (a, d) -> Format.fprintf f "%s : %s" a d))
        r.rel_attrs)
    p.relations;
  Format.fprintf fmt "@.RULES@.";
  List.iter (fun r -> Format.fprintf fmt "%a@." pp_rule r) p.rules
