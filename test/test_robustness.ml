(* Robustness of the resource-governed solver runtime: structured
   budget errors for every limit kind, cooperative cancellation via
   injected faults, abort-and-resume on the same engine and node table,
   loader validation with file:line:field diagnostics, fd hygiene of
   the .tuples reader, and the soundness of the graceful-degradation
   ladder (every fallback answer is a superset of the precise one). *)

module Analyses = Pta.Analyses

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- transitive closure over a chain: a small engine with a real
   multi-round fixpoint --- *)

let tc_src =
  {|
DOMAINS
V 256

RELATIONS
input e (src : V, dst : V)
output t (src : V, dst : V)

RULES
t(x, y) :- e(x, y).
t(x, z) :- t(x, y), e(y, z).
|}

let chain_edges = List.init 255 (fun i -> [| i; i + 1 |])

let tc_engine () =
  let eng = Engine.parse_and_create tc_src in
  Engine.set_tuples eng "e" chain_edges;
  eng

let man_of eng = Space.man (Engine.space eng)
let sorted_t eng = List.sort compare (List.map Array.to_list (Relation.tuples (Engine.relation eng "t")))

let reference_t = lazy (let eng = tc_engine () in ignore (Engine.run eng); sorted_t eng)

let expect_exhausted what pick = function
  | Error (Solver_error.Budget_exhausted e) -> (
    match pick e.Solver_error.reason with
    | true -> e
    | false ->
      Alcotest.failf "%s: wrong reason: %s" what (Budget.reason_to_string e.Solver_error.reason))
  | Error e -> Alcotest.failf "%s: unexpected error: %s" what (Solver_error.to_string e)
  | Ok _ -> Alcotest.failf "%s: solve unexpectedly succeeded" what

(* --- budget limit kinds produce the matching structured reason --- *)

let test_iteration_budget () =
  let eng = tc_engine () in
  Engine.set_budget eng (Some (Budget.make ~max_iterations:2 ()));
  let e =
    expect_exhausted "iterations" (function Budget.Iterations { limit } -> limit = 2 | _ -> false)
      (Engine.solve eng)
  in
  check_int "aborted on the round after the limit" 3 e.Solver_error.partial_iterations;
  check_bool "live nodes recorded" true (e.Solver_error.live_nodes > 0)

let test_allocation_budget () =
  let eng = tc_engine () in
  (* One more allocation than already spent: the next amortized check
     inside [Bdd.mk] must trip. *)
  let limit = Bdd.allocations (man_of eng) + 1 in
  Engine.set_budget eng (Some (Budget.make ~max_allocations:limit ()));
  ignore
    (expect_exhausted "allocations"
       (function Budget.Allocations { actual; _ } -> actual > limit | _ -> false)
       (Engine.solve eng))

let test_node_budget () =
  let eng = tc_engine () in
  Engine.set_budget eng (Some (Budget.make ~max_live_nodes:1 ()));
  ignore
    (expect_exhausted "live nodes"
       (function Budget.Live_nodes { actual; _ } -> actual > 1 | _ -> false)
       (Engine.solve eng))

let test_timeout_budget () =
  let eng = tc_engine () in
  let b = Budget.make ~timeout_s:0.0 () in
  ignore (Unix.select [] [] [] 0.002) (* let the deadline pass *);
  Engine.set_budget eng (Some b);
  ignore
    (expect_exhausted "timeout" (function Budget.Timeout _ -> true | _ -> false) (Engine.solve eng))

(* --- fault injection: cooperative cancellation between checks --- *)

let test_cancellation () =
  let eng = tc_engine () in
  let b = Budget.unlimited () in
  Faults.cancel_after_checks b 5;
  Engine.set_budget eng (Some b);
  ignore
    (expect_exhausted "cancel" (function Budget.Cancelled -> true | _ -> false) (Engine.solve eng));
  check_bool "flag observable afterwards" true (Budget.is_cancelled b)

let test_check_cadence () =
  (* The solver must actually reach check sites; otherwise every limit
     above could only fire by accident. *)
  let eng = tc_engine () in
  let b = Budget.unlimited () in
  let n = Faults.count_checks b in
  Engine.set_budget eng (Some b);
  ignore (Engine.run eng);
  check_bool "budget consulted many times during a solve" true (!n > 10)

(* --- abort, then resume to the exact fixpoint on the same engine --- *)

let resume_after abort_budget =
  let eng = tc_engine () in
  Engine.set_budget eng (Some abort_budget);
  (match Engine.solve eng with
  | Error (Solver_error.Budget_exhausted _) -> ()
  | Error e -> Alcotest.failf "expected exhaustion, got: %s" (Solver_error.to_string e)
  | Ok _ -> Alcotest.fail "budget did not abort the solve");
  (* The node table must still be collectable and usable. *)
  Bdd.gc (man_of eng);
  Engine.set_budget eng None;
  let stats = Engine.solve eng in
  check_bool "resumed solve succeeds" true (Result.is_ok stats);
  Alcotest.(check (list (list int))) "resumed fixpoint matches uninterrupted run" (Lazy.force reference_t)
    (sorted_t eng)

let test_resume_after_iteration_abort () = resume_after (Budget.make ~max_iterations:3 ())

let test_resume_after_midrule_abort () =
  (* An allocation limit fires inside [Bdd.mk], mid rule application —
     the harshest abort point. *)
  let eng = tc_engine () in
  let limit = Bdd.allocations (man_of eng) + 1 in
  Engine.set_budget eng (Some (Budget.make ~max_allocations:limit ()));
  (match Engine.solve eng with
  | Error (Solver_error.Budget_exhausted _) -> ()
  | Error e -> Alcotest.failf "expected exhaustion, got: %s" (Solver_error.to_string e)
  | Ok _ -> Alcotest.fail "budget did not abort the solve");
  Bdd.gc (man_of eng);
  Engine.set_budget eng None;
  ignore (Engine.run eng);
  Alcotest.(check (list (list int))) "mid-rule abort then resume matches" (Lazy.force reference_t) (sorted_t eng)

(* --- loader validation: file:line:field diagnostics, no fd leaks --- *)

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let expect_bad_input what f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Bad_input" what
  | exception Solver_error.Error (Solver_error.Bad_input b) -> b
  | exception Solver_error.Error e -> Alcotest.failf "%s: wrong error: %s" what (Solver_error.to_string e)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_loader_diagnostics () =
  let path = Filename.temp_file "robust" ".tuples" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let schema = [ ("src", 4); ("dst", 4) ] in
  write_file path "0 1\n2 zap\n";
  let b = expect_bad_input "non-integer" (fun () -> Tuples_io.load_file path) in
  check_int "non-integer line" 2 b.Solver_error.line;
  check_bool "non-integer message" true (contains b.Solver_error.msg "not an integer");
  write_file path "3 3\n1 9\n";
  let b = expect_bad_input "range" (fun () -> Tuples_io.load_file ~schema path) in
  check_int "range line" 2 b.Solver_error.line;
  check_bool "range names the field" true (contains b.Solver_error.msg "dst");
  check_bool "range shows the bound" true (contains b.Solver_error.msg "[0, 4)");
  write_file path "# comment\n1 2 3\n";
  let b = expect_bad_input "arity" (fun () -> Tuples_io.load_file ~schema path) in
  check_int "arity line" 2 b.Solver_error.line;
  check_bool "arity message" true (contains b.Solver_error.msg "expected 2 fields");
  (* A healthy file with comments and blanks still loads. *)
  write_file path "# ok\n0 1\n\n3 2\n";
  Alcotest.(check (list (list int))) "valid file loads" [ [ 0; 1 ]; [ 3; 2 ] ] (Tuples_io.load_file ~schema path)

let test_corrupt_file_injection () =
  let path = Filename.temp_file "robust" ".tuples" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  write_file path "0 1\n1 2\n2 3\n";
  Alcotest.(check int) "pristine file loads" 3 (List.length (Tuples_io.load_file path));
  Faults.corrupt_file path ~at:4 "x$%";
  let b = expect_bad_input "corrupted" (fun () -> Tuples_io.load_file path) in
  check_bool "corruption located" true (b.Solver_error.line > 0)

let count_fds () =
  if Sys.file_exists "/proc/self/fd" then Some (Array.length (Sys.readdir "/proc/self/fd")) else None

let test_no_fd_leak () =
  match count_fds () with
  | None -> () (* no procfs on this platform; nothing to measure *)
  | Some before ->
    let bad = Filename.temp_file "robust" ".tuples" in
    Fun.protect ~finally:(fun () -> Sys.remove bad) @@ fun () ->
    write_file bad "1 1\nnope\n";
    for _ = 1 to 50 do
      (try ignore (Tuples_io.load_file bad) with Solver_error.Error _ -> ());
      (try ignore (Tuples_io.load_file (bad ^ ".missing")) with Solver_error.Error _ -> ());
      try ignore (Jir.Jparser.parse_file bad) with _ -> ()
    done;
    (match count_fds () with
    | Some after -> check_int "fd count unchanged after 150 failed loads" before after
    | None -> ())

(* A --dump name the algorithm does not declare is bad input: ptacli
   exits 1 with the relations it can dump, before any solve starts
   (nothing else is printed). *)
let test_dump_unknown_relation () =
  let dir = Filename.temp_dir "whalelam-dump" "" in
  let jir = Filename.concat dir "p.jir" and log = Filename.concat dir "out" in
  let prog = Synth.Generator.generate (Synth.Profiles.params ~scale:0.003 (Option.get (Synth.Profiles.find "gantt"))) in
  Out_channel.with_open_bin jir (fun oc -> output_string oc (Jir.Jprinter.to_string prog));
  let logfd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid =
    Unix.create_process "../bin/ptacli.exe" [| "ptacli"; "analyze"; "-a"; "cs"; "--dump=vP"; jir |] Unix.stdin logfd
      logfd
  in
  Unix.close logfd;
  let status = snd (Unix.waitpid [] pid) in
  let out = In_channel.with_open_bin log In_channel.input_all in
  List.iter Sys.remove [ jir; log ];
  Sys.rmdir dir;
  check_bool "exit 1" true (status = Unix.WEXITED 1);
  match String.split_on_char '\n' (String.trim out) with
  | [ line ] ->
    check_bool ("names the bad relation: " ^ line) true
      (String.starts_with ~prefix:"ptacli: --dump: vP is not a relation" line);
    check_bool "lists the dumpable vPC" true (List.mem "vPC" (String.split_on_char ' ' line))
  | lines -> Alcotest.failf "expected one error line before any solve, got:\n%s" (String.concat "\n" lines)

(* Out-of-range node-arena knobs are bad input: every command that takes
   them exits 1 naming the flag and its range before reading a file
   (the program and store paths here do not exist). *)
let test_bad_arena_knobs () =
  let log = Filename.temp_file "whalelam-knobs" ".out" in
  let run args =
    let logfd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
    let pid = Unix.create_process "../bin/ptacli.exe" (Array.of_list ("ptacli" :: args)) Unix.stdin logfd logfd in
    Unix.close logfd;
    let status = snd (Unix.waitpid [] pid) in
    (status, String.trim (In_channel.with_open_bin log In_channel.input_all))
  in
  let missing = "/nonexistent/whalelam/p.jir" and store = [ "--store"; "/nonexistent/whalelam/st" ] in
  List.iter
    (fun (args, expect) ->
      let what = String.concat " " args in
      let status, out = run args in
      check_bool (what ^ ": exit 1") true (status = Unix.WEXITED 1);
      check_bool (what ^ ": one line naming the flag and range: " ^ out) true (out = expect))
    [
      ([ "analyze"; missing; "--page-bits"; "30" ], "ptacli: --page-bits: 30 is outside the valid range 4 to 22");
      ([ "analyze"; missing; "--page-bits"; "2" ], "ptacli: --page-bits: 2 is outside the valid range 4 to 22");
      ( [ "analyze"; missing; "--mem-cap"; "0" ],
        Printf.sprintf "ptacli: --mem-cap: 0 is outside the valid range 1 to %d MiB" (max_int lsr 20) );
      ( [ "analyze"; missing; "--mem-cap=-5" ],
        Printf.sprintf "ptacli: --mem-cap: -5 is outside the valid range 1 to %d MiB" (max_int lsr 20) );
      ([ "update"; missing; "--page-bits"; "23" ] @ store, "ptacli: --page-bits: 23 is outside the valid range 4 to 22");
      ([ "certify"; missing; "--page-bits"; "3" ] @ store, "ptacli: --page-bits: 3 is outside the valid range 4 to 22");
      ( [ "store"; "certify"; missing; "--mem-cap"; "0" ] @ store,
        Printf.sprintf "ptacli: --mem-cap: 0 is outside the valid range 1 to %d MiB" (max_int lsr 20) );
    ];
  Sys.remove log

(* A .bddvarorder naming an undeclared or repeated domain is bad input:
   ptacli datalog exits 1 with the directive's file:line, not 3 with an
   internal error. *)
let test_bad_bddvarorder () =
  let dir = Filename.temp_dir "whalelam-varorder" "" in
  let dl = Filename.concat dir "p.dl" and log = Filename.concat dir "out" in
  List.iter
    (fun (order, expect) ->
      Out_channel.with_open_bin dl (fun oc ->
          Printf.fprintf oc "DOMAINS\nV 4\nH 4\n.bddvarorder %S\nRELATIONS\noutput t (a : V, b : H)\nRULES\nt(0, 1).\n"
            order);
      let logfd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
      let pid =
        Unix.create_process "../bin/ptacli.exe" [| "ptacli"; "datalog"; "--facts"; dir; dl |] Unix.stdin logfd logfd
      in
      Unix.close logfd;
      let status = snd (Unix.waitpid [] pid) in
      let out = String.trim (In_channel.with_open_bin log In_channel.input_all) in
      check_bool (order ^ ": exit 1") true (status = Unix.WEXITED 1);
      Alcotest.(check string) (order ^ ": diagnostic") (dl ^ ":4: " ^ expect) out)
    [ ("V Q H", ".bddvarorder names unknown domain Q"); ("V V H", ".bddvarorder names domain V twice") ];
  List.iter Sys.remove [ dl; log ];
  Sys.rmdir dir

(* A socket path that is a regular file is refused without removing
   it, and the message names the subcommand that refused: the router's
   own socket errors say [route:], not [serve:]. *)
let test_route_socket_is_file () =
  let dir = Filename.temp_dir "whalelam-route" "" in
  let sock = Filename.concat dir "not-a-socket" and log = Filename.concat dir "err" in
  Out_channel.with_open_bin sock (fun oc -> output_string oc "keep me\n");
  let logfd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid =
    Unix.create_process "../bin/ptacli.exe"
      [| "ptacli"; "route"; "--socket"; sock; "--backend"; Filename.concat dir "missing.sock" |]
      Unix.stdin Unix.stdout logfd
  in
  Unix.close logfd;
  let status = snd (Unix.waitpid [] pid) in
  let err = In_channel.with_open_bin log In_channel.input_all in
  let kept = In_channel.with_open_bin sock In_channel.input_all in
  List.iter Sys.remove [ sock; log ];
  Sys.rmdir dir;
  check_bool "exit 1" true (status = Unix.WEXITED 1);
  check_bool ("the error names route: " ^ err) true (String.starts_with ~prefix:"route: " err);
  Alcotest.(check string) "the file is left alone" "keep me\n" kept

(* --- the degradation ladder returns sound overapproximations --- *)

let fg_of_profile name scale =
  let prof = Option.get (Synth.Profiles.find name) in
  Jir.Factgen.extract (Synth.Generator.generate (Synth.Profiles.params ~scale prof))

let is_superset big small =
  let h = Hashtbl.create (List.length big) in
  List.iter (fun p -> Hashtbl.replace h p ()) big;
  List.for_all (Hashtbl.mem h) small

let precise_and_ci fg =
  let precise =
    match Analyses.solve_with_fallback fg with
    | Ok fb when fb.Analyses.rung = Analyses.Rung_cs -> fb
    | Ok fb -> Alcotest.failf "unbudgeted ladder degraded to %s" (Analyses.rung_name fb.Analyses.rung)
    | Error e -> Alcotest.failf "unbudgeted ladder failed: %s" (Solver_error.to_string e)
  in
  let ci =
    match Analyses.solve_basic ~algo:Analyses.Algo2 fg with
    | Ok r -> r
    | Error e -> Alcotest.failf "algo2 failed: %s" (Solver_error.to_string e)
  in
  (precise, ci)

let test_fallback_ladder name scale () =
  let fg = fg_of_profile name scale in
  let precise, ci = precise_and_ci fg in
  (* Self-calibrate the budget on the fixpoint-round axis: the precise
     pipeline (on-the-fly call graph, then the context-sensitive solve)
     always needs more rounds than plain Algorithm 2 on these programs,
     so a limit of exactly Algorithm 2's round count exhausts the
     precise attempt and lets the fallback finish. *)
  let rounds (r : Analyses.result) = r.Analyses.stats.Datalog.Engine.iterations in
  let i_ci = rounds ci in
  let i_otf =
    match Analyses.solve_basic ~algo:Analyses.Algo3 fg with
    | Ok r -> rounds r
    | Error e -> Alcotest.failf "algo3 failed: %s" (Solver_error.to_string e)
  in
  let i_cs = rounds (Option.get precise.Analyses.result) in
  check_bool "calibration: precise pipeline needs more rounds than algo2" true (max i_otf i_cs > i_ci);
  let budget = Budget.make ~max_iterations:i_ci () in
  (match Analyses.solve_with_fallback ~budget fg with
  | Ok fb ->
    check_bool "answered by the context-insensitive rung" true (fb.Analyses.rung = Analyses.Rung_ci);
    check_bool "the failed precise attempt is reported" true
      (List.exists (fun (r, _) -> r = Analyses.Rung_cs) fb.Analyses.failures);
    check_bool "ci answer is a superset of the precise one" true
      (is_superset fb.Analyses.vp precise.Analyses.vp);
    check_bool "degradation is strict here" true
      (List.length fb.Analyses.vp >= List.length precise.Analyses.vp)
  | Error e -> Alcotest.failf "ladder failed: %s" (Solver_error.to_string e));
  (* A budget too tight even for Algorithm 2 falls through to
     Steensgaard, which needs no BDDs at all. *)
  (match Analyses.solve_with_fallback ~budget:(Budget.make ~max_live_nodes:100 ()) fg with
  | Ok fb ->
    check_bool "answered by the Steensgaard rung" true (fb.Analyses.rung = Analyses.Rung_steens);
    check_int "both BDD rungs reported failed" 2 (List.length fb.Analyses.failures);
    check_bool "unification answer is a superset of the precise one" true
      (is_superset fb.Analyses.vp precise.Analyses.vp)
  | Error e -> Alcotest.failf "steensgaard ladder failed: %s" (Solver_error.to_string e))

let test_cancel_does_not_degrade () =
  let fg = fg_of_profile "gantt" 0.01 in
  let budget = Budget.unlimited () in
  Faults.cancel_after_checks budget 3;
  match Analyses.solve_with_fallback ~budget fg with
  | Error (Solver_error.Budget_exhausted { Solver_error.reason = Budget.Cancelled; _ }) -> ()
  | Error e -> Alcotest.failf "expected cancellation, got: %s" (Solver_error.to_string e)
  | Ok fb -> Alcotest.failf "cancelled ladder still answered via %s" (Analyses.rung_name fb.Analyses.rung)

let () =
  Alcotest.run "robustness"
    [
      ( "budgets",
        [
          Alcotest.test_case "iteration limit" `Quick test_iteration_budget;
          Alcotest.test_case "allocation limit" `Quick test_allocation_budget;
          Alcotest.test_case "live-node limit" `Quick test_node_budget;
          Alcotest.test_case "wall-clock deadline" `Quick test_timeout_budget;
          Alcotest.test_case "cooperative cancellation" `Quick test_cancellation;
          Alcotest.test_case "check cadence" `Quick test_check_cadence;
        ] );
      ( "resume",
        [
          Alcotest.test_case "abort between rounds, rerun" `Quick test_resume_after_iteration_abort;
          Alcotest.test_case "abort mid-rule, rerun" `Quick test_resume_after_midrule_abort;
        ] );
      ( "loaders",
        [
          Alcotest.test_case "file:line:field diagnostics" `Quick test_loader_diagnostics;
          Alcotest.test_case "injected corruption" `Quick test_corrupt_file_injection;
          Alcotest.test_case "no fd leak on failed loads" `Quick test_no_fd_leak;
          Alcotest.test_case "analyze --dump of an unknown relation exits 1" `Quick test_dump_unknown_relation;
          Alcotest.test_case "out-of-range arena knobs exit 1 before any file is read" `Quick test_bad_arena_knobs;
          Alcotest.test_case "datalog with a bad .bddvarorder exits 1" `Quick test_bad_bddvarorder;
          Alcotest.test_case "route refuses a non-socket path as route:" `Quick test_route_socket_is_file;
        ] );
      ( "fallback",
        [
          Alcotest.test_case "ladder soundness (gantt)" `Slow (test_fallback_ladder "gantt" 0.02);
          Alcotest.test_case "ladder soundness (joone)" `Slow (test_fallback_ladder "joone" 0.02);
          Alcotest.test_case "cancellation does not degrade" `Quick test_cancel_does_not_degrade;
        ] );
    ]
