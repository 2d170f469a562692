(* Datalog front end and engine: parser round-trips, stratification,
   error reporting, and differential testing of the BDD engine against
   the naive tuple-set evaluator on classic programs with random
   inputs. *)

let check_bool = Alcotest.(check bool)

(* --- Parser --- *)

let tc_src =
  {|
# transitive closure
DOMAINS
V 8

RELATIONS
input e (src : V, dst : V)
output t (src : V, dst : V)

RULES
t(x, y) :- e(x, y).
t(x, z) :- t(x, y), e(y, z).
|}

let test_parse_tc () =
  let p = Parser.parse tc_src in
  Alcotest.(check int) "domains" 1 (List.length p.Ast.domains);
  Alcotest.(check int) "relations" 2 (List.length p.Ast.relations);
  Alcotest.(check int) "rules" 2 (List.length p.Ast.rules);
  let r = List.nth p.Ast.rules 1 in
  Alcotest.(check int) "body size" 2 (List.length r.Ast.body)

let test_parse_roundtrip () =
  (* Structural equality modulo rule positions: printing reflows the
     source, so line numbers legitimately differ. *)
  let strip (p : Ast.program) =
    { p with Ast.rules = List.map (fun r -> { r with Ast.rule_pos = None }) p.Ast.rules }
  in
  let p = Parser.parse tc_src in
  let printed = Format.asprintf "%a" Ast.pp_program p in
  let p2 = Parser.parse printed in
  check_bool "pp then parse preserves structure" true (strip p = strip p2)

let test_parse_features () =
  let src =
    {|
DOMAINS
V 16
T 4 "type.map"

RELATIONS
input vT (v : V, t : T)
input aT (sup : T, sub : T)
output bad (v : V, t : T)
output refinable (v : V)

RULES
bad(v, t) :- vT(v, tv), !aT(t, tv).
refinable(v) :- vT(v, td), bad(v, tc), td != tc, vT(v, "2").
|}
  in
  let p = Parser.parse src in
  let r = List.nth p.Ast.rules 1 in
  check_bool "has cmp literal" true
    (List.exists (function Ast.Cmp (_, Ast.Neq, _) -> true | _ -> false) r.Ast.body);
  check_bool "has const" true
    (List.exists
       (function Ast.Pos { Ast.args; _ } -> List.mem (Ast.Const "2") args | _ -> false)
       r.Ast.body)

let test_parse_errors () =
  let bad_cases =
    [
      "DOMAINS\nV x\nRELATIONS\nRULES\n";
      "DOMAINS\nRELATIONS\nr (a : V\nRULES\n";
      "DOMAINS\nRELATIONS\nRULES\nfoo(x) :- .\n";
      "RELATIONS\nRULES\n";
      (* .bddvarorder must name each declared domain at most once. *)
      "DOMAINS\nV 4\nH 4\n.bddvarorder \"V Q H\"\nRELATIONS\nRULES\n";
      "DOMAINS\nV 4\nH 4\n.bddvarorder \"V V H\"\nRELATIONS\nRULES\n";
      "DOMAINS\n.bddvarorder \"V\"\nV 4\n.bddvarorder \"V\"\nRELATIONS\nRULES\n";
    ]
  in
  List.iter
    (fun src ->
      match Parser.parse src with
      | exception Parser.Parse_error _ -> ()
      | exception Lexer.Lex_error _ -> ()
      | _ -> Alcotest.failf "expected parse failure for %S" src)
    bad_cases

let test_lexer_wildcard_rule () =
  match Lexer.tokens "_x" with
  | exception Lexer.Lex_error _ -> ()
  | _ -> Alcotest.fail "identifiers may not start with underscore"

let test_error_line_numbers () =
  (* Errors must carry the line of the offending token. *)
  (match Parser.parse "DOMAINS\nV 4\nRELATIONS\nr (a : V)\nRULES\nr(x) :-\n" with
  | exception Parser.Parse_error e -> Alcotest.(check bool) "near the broken rule" true (e.Parser.line >= 6)
  | _ -> Alcotest.fail "expected error");
  (* A bad .bddvarorder is reported at the directive's line, even when
     the domains it names are declared after it. *)
  List.iter
    (fun (order, what) ->
      match Parser.parse (Printf.sprintf "DOMAINS\nV 4\n.bddvarorder %S\nH 4\nRELATIONS\nRULES\n" order) with
      | exception Parser.Parse_error e -> Alcotest.(check int) (what ^ " directive line") 3 e.Parser.line
      | _ -> Alcotest.failf "expected %s directive to be rejected" what)
    [ ("V Q H", "unknown-domain"); ("H V H", "repeated-domain") ];
  (match Parser.parse "DOMAINS\nV 4\n.bddvarorder \"H V\"\nH 4\nRELATIONS\nRULES\n" with
  | p -> Alcotest.(check (option (list string))) "forward reference" (Some [ "H"; "V" ]) p.Ast.var_order
  | exception Parser.Parse_error e -> Alcotest.failf "forward reference rejected: %s" e.Parser.message);
  match Lexer.tokens "a b\nc $ d" with
  | exception Lexer.Lex_error e ->
    Alcotest.(check int) "lex error line" 2 e.Lexer.line;
    Alcotest.(check bool) "lex error column" true (e.Lexer.col >= 3)
  | _ -> Alcotest.fail "expected lex error"

(* --- Stratification --- *)

let test_stratify_tc () =
  let p = Parser.parse tc_src in
  let strata = Stratify.strata p in
  Alcotest.(check int) "one stratum with rules" 1 (List.length strata);
  let st = List.hd strata in
  Alcotest.(check int) "once rules" 1 (List.length st.Stratify.once_rules);
  Alcotest.(check int) "loop rules" 1 (List.length st.Stratify.loop_rules)

let neg_src =
  {|
DOMAINS
V 8
RELATIONS
input e (src : V, dst : V)
input node (n : V)
output t (src : V, dst : V)
output unreach (src : V, dst : V)
RULES
t(x, y) :- e(x, y).
t(x, z) :- t(x, y), e(y, z).
unreach(x, y) :- node(x), node(y), !t(x, y).
|}

let test_stratify_negation () =
  let p = Parser.parse neg_src in
  let strata = Stratify.strata p in
  Alcotest.(check int) "two strata" 2 (List.length strata);
  (* t's stratum must come before unreach's. *)
  let first = List.hd strata in
  check_bool "t first" true (List.mem "t" first.Stratify.preds)

let test_unstratified_rejected () =
  let src =
    {|
DOMAINS
V 4
RELATIONS
input e (src : V, dst : V)
output p (x : V)
output q (x : V)
RULES
p(x) :- e(x, _), !q(x).
q(x) :- e(x, _), !p(x).
|}
  in
  match Stratify.strata (Parser.parse src) with
  | exception Stratify.Not_stratified _ -> ()
  | _ -> Alcotest.fail "expected Not_stratified"

(* --- Resolver errors --- *)

let expect_check_error src =
  match Engine.parse_and_create src with
  | exception Resolve.Check_error _ -> ()
  | _ -> Alcotest.failf "expected Check_error for %s" src

let test_resolve_errors () =
  (* Unbound head variable. *)
  expect_check_error
    "DOMAINS\nV 4\nRELATIONS\ninput e (a : V, b : V)\noutput p (a : V, b : V)\nRULES\np(x, y) :- e(x, x).\n";
  (* Arity mismatch. *)
  expect_check_error "DOMAINS\nV 4\nRELATIONS\ninput e (a : V, b : V)\noutput p (a : V)\nRULES\np(x) :- e(x).\n";
  (* Unknown relation. *)
  expect_check_error "DOMAINS\nV 4\nRELATIONS\noutput p (a : V)\nRULES\np(x) :- q(x).\n";
  (* Variable used at two domains. *)
  expect_check_error
    "DOMAINS\nV 4\nW 4\nRELATIONS\ninput e (a : V)\ninput f (a : W)\noutput p (a : V)\nRULES\np(x) :- e(x), f(x).\n";
  (* Negation with unbound variable. *)
  expect_check_error
    "DOMAINS\nV 4\nRELATIONS\ninput e (a : V)\ninput f (a : V)\noutput p (a : V)\nRULES\np(x) :- e(x), !f(y).\n";
  (* Head of an input relation. *)
  expect_check_error "DOMAINS\nV 4\nRELATIONS\ninput e (a : V)\noutput p (a : V)\nRULES\ne(x) :- p(x).\n";
  (* Constant out of domain range. *)
  expect_check_error "DOMAINS\nV 4\nRELATIONS\ninput e (a : V)\noutput p (a : V)\nRULES\np(x) :- e(x), x = 9.\n"

(* --- Engine vs naive evaluator --- *)

let arrays_to_lists l = List.sort compare (List.map Array.to_list l)

let run_engine ?options src inputs outputs =
  let eng = Engine.parse_and_create ?options src in
  List.iter (fun (name, tuples) -> Engine.set_tuples eng name (List.map Array.of_list tuples)) inputs;
  ignore (Engine.run eng);
  List.map (fun name -> (name, arrays_to_lists (Relation.tuples (Engine.relation eng name)))) outputs

let run_naive src inputs outputs =
  let r = Naive_eval.solve (Parser.parse src) ~inputs in
  List.map (fun name -> (name, Naive_eval.tuples r name)) outputs

let differential ?options src inputs outputs =
  let e = run_engine ?options src inputs outputs in
  let n = run_naive src inputs outputs in
  List.iter2
    (fun (name, et) ((_ : string), nt) ->
      Alcotest.(check (list (list int))) (Printf.sprintf "relation %s" name) nt et)
    e n

let gen_edges max_node =
  QCheck2.Gen.(list_size (int_range 0 20) (pair (int_range 0 max_node) (int_range 0 max_node)))

let edges_to_tuples es = List.map (fun (a, b) -> [ a; b ]) es

let prop_tc =
  QCheck2.Test.make ~name:"transitive closure: engine = naive" ~count:60 (gen_edges 7) (fun es ->
      let inputs = [ ("e", edges_to_tuples es) ] in
      run_engine tc_src inputs [ "t" ] = run_naive tc_src inputs [ "t" ])

let prop_tc_no_seminaive =
  QCheck2.Test.make ~name:"TC with naive engine iteration = naive" ~count:30 (gen_edges 7) (fun es ->
      let inputs = [ ("e", edges_to_tuples es) ] in
      let options = { Engine.default_options with semi_naive = false } in
      run_engine ~options tc_src inputs [ "t" ] = run_naive tc_src inputs [ "t" ])

let prop_tc_no_hoist_no_greedy =
  QCheck2.Test.make ~name:"TC without hoist/greedy = naive" ~count:30 (gen_edges 7) (fun es ->
      let inputs = [ ("e", edges_to_tuples es) ] in
      let options = { Engine.default_options with hoist = false; greedy_blocks = false } in
      run_engine ~options tc_src inputs [ "t" ] = run_naive tc_src inputs [ "t" ])

let prop_negation =
  QCheck2.Test.make ~name:"stratified negation: engine = naive" ~count:60
    QCheck2.Gen.(pair (gen_edges 5) (list_size (int_range 0 6) (int_range 0 5)))
    (fun (es, nodes) ->
      let inputs = [ ("e", edges_to_tuples es); ("node", List.map (fun x -> [ x ]) nodes) ] in
      run_engine neg_src inputs [ "t"; "unreach" ] = run_naive neg_src inputs [ "t"; "unreach" ])

let sg_src =
  {|
DOMAINS
V 8
RELATIONS
input flat (a : V, b : V)
input up (a : V, b : V)
input down (a : V, b : V)
output sg (a : V, b : V)
RULES
sg(x, y) :- flat(x, y).
sg(x, y) :- up(x, z1), sg(z1, z2), down(z2, y).
|}

let prop_same_generation =
  QCheck2.Test.make ~name:"same-generation: engine = naive" ~count:40
    QCheck2.Gen.(triple (gen_edges 7) (gen_edges 7) (gen_edges 7))
    (fun (f, u, d) ->
      let inputs = [ ("flat", edges_to_tuples f); ("up", edges_to_tuples u); ("down", edges_to_tuples d) ] in
      run_engine sg_src inputs [ "sg" ] = run_naive sg_src inputs [ "sg" ])

let feature_src =
  {|
DOMAINS
V 8
RELATIONS
input e (a : V, b : V)
output selfloop (a : V)
output nonself (a : V, b : V)
output haspred (a : V)
output fromzero (a : V)
output dup (a : V, b : V)
RULES
selfloop(x) :- e(x, x).
nonself(x, y) :- e(x, y), x != y.
haspred(y) :- e(_, y).
fromzero(y) :- e(0, y).
dup(x, x) :- e(x, _).
|}

let prop_features =
  QCheck2.Test.make ~name:"dup vars, wildcards, constants, !=: engine = naive" ~count:80 (gen_edges 7) (fun es ->
      let inputs = [ ("e", edges_to_tuples es) ] in
      let outs = [ "selfloop"; "nonself"; "haspred"; "fromzero"; "dup" ] in
      run_engine feature_src inputs outs = run_naive feature_src inputs outs)

let mixed_domains_src =
  {|
DOMAINS
A 8
B 4
RELATIONS
input r (x : A, y : B)
input s (y : B, z : A)
output q (x : A, z : A)
output swapped (z : A, x : A)
RULES
q(x, z) :- r(x, y), s(y, z).
swapped(z, x) :- q(x, z).
|}

let prop_mixed_domains =
  QCheck2.Test.make ~name:"two domains and attribute swap: engine = naive" ~count:60
    QCheck2.Gen.(
      pair
        (list_size (int_range 0 15) (pair (int_range 0 7) (int_range 0 3)))
        (list_size (int_range 0 15) (pair (int_range 0 3) (int_range 0 7))))
    (fun (rs, ss) ->
      let inputs = [ ("r", edges_to_tuples rs); ("s", edges_to_tuples ss) ] in
      run_engine mixed_domains_src inputs [ "q"; "swapped" ] = run_naive mixed_domains_src inputs [ "q"; "swapped" ])

let test_facts_and_rerun () =
  let src =
    {|
DOMAINS
V 8
RELATIONS
input e (a : V, b : V)
output t (a : V, b : V)
RULES
t(x, y) :- e(x, y).
t(x, z) :- t(x, y), e(y, z).
t(7, 7).
|}
  in
  let eng = Engine.parse_and_create src in
  Engine.set_tuples eng "e" [ [| 0; 1 |] ];
  ignore (Engine.run eng);
  let t = Engine.relation eng "t" in
  Alcotest.(check (list (list int))) "fact included" [ [ 0; 1 ]; [ 7; 7 ] ] (arrays_to_lists (Relation.tuples t));
  (* Incremental re-run after adding tuples. *)
  Engine.add_tuple eng "e" [| 1; 2 |];
  ignore (Engine.run eng);
  Alcotest.(check (list (list int)))
    "re-run converges" [ [ 0; 1 ]; [ 0; 2 ]; [ 1; 2 ]; [ 7; 7 ] ]
    (arrays_to_lists (Relation.tuples t))

let test_element_names () =
  let src = {|
DOMAINS
V 4 "v.map"
RELATIONS
input e (a : V, b : V)
output t (a : V)
RULES
t(y) :- e("alice", y).
|} in
  let element_names = function
    | "V" -> Some [| "alice"; "bob"; "carol"; "dan" |]
    | _ -> None
  in
  let eng = Engine.parse_and_create ~element_names src in
  Engine.set_tuples eng "e" [ [| 0; 2 |]; [| 1; 3 |] ];
  ignore (Engine.run eng);
  Alcotest.(check (list (list int))) "named constant" [ [ 2 ] ] (arrays_to_lists (Relation.tuples (Engine.relation eng "t")))

let test_stats () =
  let eng = Engine.parse_and_create tc_src in
  Engine.set_tuples eng "e" [ [| 0; 1 |]; [| 1; 2 |]; [| 2; 3 |]; [| 3; 4 |] ];
  let s = Engine.run eng in
  check_bool "applications counted" true (s.Engine.rule_applications > 0);
  check_bool "iterated" true (s.Engine.iterations >= 3);
  check_bool "peak nodes positive" true (s.Engine.peak_live_nodes > 0)

let test_bddvarorder_directive () =
  (* bddbddb's .bddvarorder directive changes the physical layout but
     never the results. *)
  let src order = Printf.sprintf "DOMAINS\nA 8\nB 8\n.bddvarorder %S\nRELATIONS\ninput e (x : A, y : B)\noutput t (y : B, x : A)\nRULES\nt(y, x) :- e(x, y).\n" order in
  let run order =
    let eng = Engine.parse_and_create (src order) in
    Engine.set_tuples eng "e" [ [| 1; 2 |]; [| 3; 4 |] ];
    ignore (Engine.run eng);
    arrays_to_lists (Relation.tuples (Engine.relation eng "t"))
  in
  Alcotest.(check (list (list int))) "A B order" [ [ 2; 1 ]; [ 4; 3 ] ] (run "A B");
  Alcotest.(check (list (list int))) "B A order" [ [ 2; 1 ]; [ 4; 3 ] ] (run "B A");
  (* Unknown domain in the directive is rejected as bad input; an
     explicit order naming one is a programming error. *)
  (match Engine.parse_and_create (src "A NOPE") with
  | exception Parser.Parse_error _ -> ()
  | _ -> Alcotest.fail "expected rejection of unknown domain in .bddvarorder");
  match Engine.parse_and_create ~domain_order:[ "A"; "A" ] (src "A B") with
  | exception Engine.Engine_error _ -> ()
  | _ -> Alcotest.fail "expected rejection of a repeated domain in domain_order"

let test_engine_accessors () =
  let eng = Engine.parse_and_create tc_src in
  Alcotest.(check int) "domain size" 8 (Domain.size (Engine.domain eng "V"));
  Alcotest.(check int) "two relations" 2 (List.length (Engine.relations eng));
  Alcotest.(check bool) "no stats before run" true (Engine.last_stats eng = None);
  Engine.set_tuples eng "e" [ [| 0; 1 |] ];
  let s = Engine.run eng in
  (match Engine.last_stats eng with
  | Some s' -> Alcotest.(check int) "stats cached" s.Engine.rule_applications s'.Engine.rule_applications
  | None -> Alcotest.fail "stats missing after run");
  (match Engine.relation eng "nope" with
  | exception Engine.Engine_error _ -> ()
  | _ -> Alcotest.fail "expected unknown-relation error");
  match Engine.domain eng "Z9" with
  | exception Engine.Engine_error _ -> ()
  | _ -> Alcotest.fail "expected unknown-domain error"

let test_fact_only_program () =
  (* Rules with empty bodies and no inputs at all. *)
  let src = "DOMAINS\nV 4\nRELATIONS\noutput f (a : V, b : V)\nRULES\nf(0, 1).\nf(2, 3).\n" in
  let eng = Engine.parse_and_create src in
  ignore (Engine.run eng);
  Alcotest.(check (list (list int))) "facts materialized" [ [ 0; 1 ]; [ 2; 3 ] ]
    (arrays_to_lists (Relation.tuples (Engine.relation eng "f")))

let test_leading_negation () =
  (* A negation with no variables is ready before any join, so it is
     scheduled as the plan's first step, operating on the initial
     full-universe environment.  The executor must treat that subtract
     as a real first step — an earlier version silently discarded it,
     letting the following join overwrite it. *)
  let src =
    "DOMAINS\nV 4\nRELATIONS\ninput guard (a : V)\ninput d (a : V)\noutput r (a : V)\nRULES\nr(x) :- !guard(_), d(x).\n"
  in
  let run guard =
    let eng = Engine.parse_and_create src in
    Engine.set_tuples eng "guard" (List.map (fun v -> [| v |]) guard);
    Engine.set_tuples eng "d" [ [| 0 |]; [| 2 |] ];
    ignore (Engine.run eng);
    arrays_to_lists (Relation.tuples (Engine.relation eng "r"))
  in
  (* Non-empty guard: the rule body is false for every x. *)
  Alcotest.(check (list (list int))) "guard non-empty" [] (run [ 1 ]);
  (* Empty guard: the negation holds and r copies d. *)
  Alcotest.(check (list (list int))) "guard empty" [ [ 0 ]; [ 2 ] ] (run []);
  (* And the reference executors agree. *)
  differential src [ ("guard", [ [ 1 ] ]); ("d", [ [ 0 ]; [ 2 ] ]) ] [ "r" ];
  differential src [ ("guard", []); ("d", [ [ 0 ]; [ 2 ] ]) ] [ "r" ]

let test_gc_during_solve () =
  (* Tight gc interval: correctness must not depend on collection
     timing. *)
  let options = { Engine.default_options with gc_interval = 1 } in
  let inputs = [ ("e", [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 3 ]; [ 3; 0 ]; [ 4; 5 ] ]) ] in
  differential ~options tc_src inputs [ "t" ]

let () =
  Alcotest.run "datalog"
    [
      ( "parser",
        [
          Alcotest.test_case "transitive closure" `Quick test_parse_tc;
          Alcotest.test_case "pp roundtrip" `Quick test_parse_roundtrip;
          Alcotest.test_case "negation, cmp, consts" `Quick test_parse_features;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "underscore rule" `Quick test_lexer_wildcard_rule;
          Alcotest.test_case "error line numbers" `Quick test_error_line_numbers;
        ] );
      ( "stratify",
        [
          Alcotest.test_case "tc strata" `Quick test_stratify_tc;
          Alcotest.test_case "negation strata" `Quick test_stratify_negation;
          Alcotest.test_case "unstratified rejected" `Quick test_unstratified_rejected;
        ] );
      ("resolve", [ Alcotest.test_case "static errors" `Quick test_resolve_errors ]);
      ( "engine",
        [
          Alcotest.test_case "facts and rerun" `Quick test_facts_and_rerun;
          Alcotest.test_case "element names" `Quick test_element_names;
          Alcotest.test_case "stats" `Quick test_stats;
          Alcotest.test_case "gc during solve" `Quick test_gc_during_solve;
          Alcotest.test_case "bddvarorder directive" `Quick test_bddvarorder_directive;
          Alcotest.test_case "engine accessors" `Quick test_engine_accessors;
          Alcotest.test_case "fact-only program" `Quick test_fact_only_program;
          Alcotest.test_case "leading no-variable negation" `Quick test_leading_negation;
        ] );
      ( "differential",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_tc;
            prop_tc_no_seminaive;
            prop_tc_no_hoist_no_greedy;
            prop_negation;
            prop_same_generation;
            prop_features;
            prop_mixed_domains;
          ] );
    ]
