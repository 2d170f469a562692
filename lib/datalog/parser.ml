type error = { message : string; line : int }

exception Parse_error of error

type state = { toks : (Lexer.token * int) array; file : string; mutable pos : int }

let peek st = fst st.toks.(st.pos)
let peek_line st = snd st.toks.(st.pos)

let peek2 st = if st.pos + 1 < Array.length st.toks then fst st.toks.(st.pos + 1) else Lexer.EOF

let advance st = if st.pos < Array.length st.toks - 1 then st.pos <- st.pos + 1

let fail st message = raise (Parse_error { message; line = peek_line st })

let expect st tok what =
  if peek st = tok then advance st
  else fail st (Format.asprintf "expected %s, found %a" what Lexer.pp_token (peek st))

let ident st what =
  match peek st with
  | Lexer.IDENT s ->
    advance st;
    s
  | t -> fail st (Format.asprintf "expected %s, found %a" what Lexer.pp_token t)

let term st : Ast.term =
  match peek st with
  | Lexer.IDENT s ->
    advance st;
    Ast.Var s
  | Lexer.STRING s ->
    advance st;
    Ast.Const s
  | Lexer.INT i ->
    advance st;
    Ast.Const (string_of_int i)
  | Lexer.UNDERSCORE ->
    advance st;
    Ast.Wildcard
  | t -> fail st (Format.asprintf "expected a term, found %a" Lexer.pp_token t)

let atom st : Ast.atom =
  let pred = ident st "a predicate name" in
  expect st Lexer.LPAREN "'('";
  let args = ref [] in
  if peek st <> Lexer.RPAREN then begin
    args := [ term st ];
    while peek st = Lexer.COMMA do
      advance st;
      args := term st :: !args
    done
  end;
  expect st Lexer.RPAREN "')'";
  { Ast.pred; args = List.rev !args }

let literal st : Ast.literal =
  match peek st with
  | Lexer.BANG ->
    advance st;
    Ast.Neg (atom st)
  | Lexer.IDENT _ when peek2 st = Lexer.LPAREN -> Ast.Pos (atom st)
  | Lexer.IDENT _ | Lexer.STRING _ | Lexer.INT _ | Lexer.UNDERSCORE -> (
    let left = term st in
    match peek st with
    | Lexer.EQ ->
      advance st;
      Ast.Cmp (left, Ast.Eq, term st)
    | Lexer.NEQ ->
      advance st;
      Ast.Cmp (left, Ast.Neq, term st)
    | t -> fail st (Format.asprintf "expected '=' or '!=' after term, found %a" Lexer.pp_token t))
  | t -> fail st (Format.asprintf "expected a literal, found %a" Lexer.pp_token t)

let rule st : Ast.rule =
  let line = peek_line st in
  let head = atom st in
  let body =
    if peek st = Lexer.TURNSTILE then begin
      advance st;
      let lits = ref [ literal st ] in
      while peek st = Lexer.COMMA do
        advance st;
        lits := literal st :: !lits
      done;
      List.rev !lits
    end
    else []
  in
  expect st Lexer.DOT "'.' at end of rule";
  { Ast.head; body; rule_pos = Some { Ast.file = st.file; line } }

let rules_until_eof st =
  let out = ref [] in
  while peek st <> Lexer.EOF do
    out := rule st :: !out
  done;
  List.rev !out

let section st name =
  match peek st with
  | Lexer.IDENT s when s = name -> advance st
  | t -> fail st (Format.asprintf "expected section %s, found %a" name Lexer.pp_token t)

let domain_decl st : Ast.domain_decl =
  let dom_name = ident st "a domain name" in
  let dom_size =
    match peek st with
    | Lexer.INT i ->
      advance st;
      i
    | t -> fail st (Format.asprintf "expected domain size, found %a" Lexer.pp_token t)
  in
  let dom_map =
    match peek st with
    | Lexer.STRING s ->
      advance st;
      Some s
    | _ -> None
  in
  { Ast.dom_name; dom_size; dom_map }

let rel_decl st : Ast.rel_decl =
  let rel_kind, rel_name =
    match peek st with
    | Lexer.IDENT "input" when (match peek2 st with Lexer.IDENT _ -> true | _ -> false) ->
      advance st;
      (Ast.Input, ident st "a relation name")
    | Lexer.IDENT "output" when (match peek2 st with Lexer.IDENT _ -> true | _ -> false) ->
      advance st;
      (Ast.Output, ident st "a relation name")
    | _ -> (Ast.Internal, ident st "a relation name")
  in
  expect st Lexer.LPAREN "'('";
  let attr () =
    let a = ident st "an attribute name" in
    expect st Lexer.COLON "':'";
    let d = ident st "a domain name" in
    (a, d)
  in
  let attrs = ref [ attr () ] in
  while peek st = Lexer.COMMA do
    advance st;
    attrs := attr () :: !attrs
  done;
  expect st Lexer.RPAREN "')'";
  { Ast.rel_name; rel_kind; rel_attrs = List.rev !attrs }

let parse ?(file = "<datalog>") src =
  let st = { toks = Array.of_list (Lexer.tokens src); file; pos = 0 } in
  section st "DOMAINS";
  let domains = ref [] in
  let var_order = ref None in
  let continue = ref true in
  while !continue do
    match peek st with
    | Lexer.IDENT "RELATIONS" -> continue := false
    | Lexer.IDENT _ -> domains := domain_decl st :: !domains
    | Lexer.DOT -> (
      let line = peek_line st in
      if !var_order <> None then fail st "a second .bddvarorder directive";
      advance st;
      (match peek st with
      | Lexer.IDENT "bddvarorder" -> advance st
      | t -> fail st (Format.asprintf "expected 'bddvarorder' after '.', found %a" Lexer.pp_token t));
      match peek st with
      | Lexer.STRING s ->
        advance st;
        var_order := Some (line, String.split_on_char ' ' s |> List.filter (fun x -> x <> ""))
      | t -> fail st (Format.asprintf "expected a quoted order after .bddvarorder, found %a" Lexer.pp_token t))
    | _ -> continue := false
  done;
  (* The directive may precede some of the domains it names, so it is
     checked once the whole section is read. *)
  Option.iter
    (fun (line, names) ->
      let bad message = raise (Parse_error { message; line }) in
      ignore
        (List.fold_left
           (fun seen n ->
             if not (List.exists (fun (d : Ast.domain_decl) -> d.Ast.dom_name = n) !domains) then
               bad (Printf.sprintf ".bddvarorder names unknown domain %s" n);
             if List.mem n seen then bad (Printf.sprintf ".bddvarorder names domain %s twice" n);
             n :: seen)
           [] names))
    !var_order;
  section st "RELATIONS";
  let relations = ref [] in
  while (match peek st with Lexer.IDENT "RULES" -> false | Lexer.IDENT _ -> true | _ -> false) do
    relations := rel_decl st :: !relations
  done;
  section st "RULES";
  let rules = rules_until_eof st in
  { Ast.domains = List.rev !domains; var_order = Option.map snd !var_order; relations = List.rev !relations; rules }
