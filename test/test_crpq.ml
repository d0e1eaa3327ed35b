let check = Alcotest.check

let test_parse () =
  let q = Crpq.parse "Q(x, y) :- x -[(ab)*]-> y, y -[c*]-> x" in
  check Alcotest.int "two atoms" 2 (Crpq.size q);
  check (Alcotest.list Alcotest.string) "free" [ "x"; "y" ] q.Crpq.free;
  check (Alcotest.list Alcotest.string) "vars" [ "x"; "y" ] (Crpq.vars q);
  let b = Crpq.parse "x -[a]-> y" in
  check Alcotest.bool "boolean" true (Crpq.is_boolean b);
  let t = Crpq.parse "Q() :- true" in
  check Alcotest.int "empty body" 0 (Crpq.size t)

let test_parse_roundtrip () =
  let qs =
    [
      "Q(x, y) :- x -[(ab)*]-> y, y -[c*]-> x";
      "x -[a|b]-> y, y -[(ab)+]-> z, z -[c?]-> x";
      "Q(x, x) :- x -[aa]-> y";
    ]
  in
  List.iter
    (fun s ->
      let q = Crpq.parse s in
      let q' = Crpq.parse (Crpq.to_string q) in
      check Alcotest.bool ("roundtrip " ^ s) true (q = q'))
    qs

let test_classify () =
  check Alcotest.bool "cq" true (Crpq.is_cq (Crpq.parse "x -[a]-> y"));
  check Alcotest.bool "fin" true (Crpq.is_finite (Crpq.parse "x -[ab|c]-> y"));
  check Alcotest.bool "fin not cq" false (Crpq.is_cq (Crpq.parse "x -[ab]-> y"));
  check Alcotest.bool "star not fin" false
    (Crpq.is_finite (Crpq.parse "x -[a*]-> y"));
  let cls_to_string = function
    | Crpq.Class_cq -> "cq"
    | Crpq.Class_fin -> "fin"
    | Crpq.Class_crpq -> "crpq"
  in
  check Alcotest.string "classify crpq" "crpq"
    (cls_to_string (Crpq.classify (Crpq.parse "x -[a]-> y, y -[b*]-> z")))

let test_cq_roundtrip () =
  let cq = Cq.make ~free:[ "x" ] [ Cq.atom "x" "a" "y" ] in
  match Crpq.to_cq (Crpq.of_cq cq) with
  | Some cq' -> check Alcotest.bool "roundtrip" true (Cq.equal cq cq')
  | None -> Alcotest.fail "expected a CQ"

let test_alphabet () =
  check (Alcotest.list Alcotest.string) "alphabet" [ "a"; "b"; "c" ]
    (Crpq.alphabet (Crpq.parse "x -[a|b]-> y, y -[c+]-> z"))

let test_has_empty () =
  check Alcotest.bool "empty lang" true
    (Crpq.has_empty_language (Crpq.parse "x -[!]-> y"));
  check Alcotest.bool "no empty" false
    (Crpq.has_empty_language (Crpq.parse "x -[a]-> y"))

let test_eps_disjuncts () =
  (* x -[a*]-> y: either a+ or collapse x=y *)
  let q = Crpq.parse "Q(x, y) :- x -[a*]-> y" in
  let ds = Crpq.epsilon_free_disjuncts q in
  check Alcotest.int "two disjuncts" 2 (List.length ds);
  List.iter
    (fun d ->
      List.iter
        (fun (a : Crpq.atom) ->
          check Alcotest.bool "no eps" false (Regex.nullable a.Crpq.lang))
        d.Crpq.atoms)
    ds;
  (* the collapsed disjunct has free tuple (y, y) *)
  check Alcotest.bool "collapsed free tuple" true
    (List.exists (fun d -> d.Crpq.free = [ "y"; "y" ]) ds);
  (* pure-epsilon language yields only the collapse *)
  let q2 = Crpq.parse "x -[%]-> y, x -[a]-> z" in
  let ds2 = Crpq.epsilon_free_disjuncts q2 in
  check Alcotest.int "one disjunct" 1 (List.length ds2);
  (* unsatisfiable query yields none *)
  check Alcotest.int "unsat none" 0
    (List.length (Crpq.epsilon_free_disjuncts (Crpq.parse "x -[!]-> y")))

(* the ε-free union must be semantically equivalent *)
let prop_eps_equivalent =
  Testutil.qtest ~count:50 "epsilon disjuncts preserve evaluation"
    QCheck2.Gen.(
      pair (Testutil.gen_crpq ~max_atoms:2 ()) (Testutil.gen_graph ~max_nodes:3 ()))
    (fun (q, g) ->
      List.for_all
        (fun sem ->
          let direct = Eval.eval sem q g in
          let union =
            List.sort_uniq compare
              (List.concat_map (fun d -> Eval.eval sem d g) (Crpq.epsilon_free_disjuncts q))
          in
          direct = union)
        [ Semantics.St; Semantics.A_inj ])

let test_nfa_cache () =
  let r = Regex.parse "(ab)*" in
  let n1 = Crpq.nfa r and n2 = Crpq.nfa r in
  check Alcotest.bool "structurally equal" true (n1 = n2);
  (* physical equality holds exactly when the memo layer is live: chaos
     injection bypasses it while armed *)
  if not (Guard.Chaos.active ()) then
    check Alcotest.bool "memoized" true (n1 == n2)

let () =
  Alcotest.run "crpq"
    [
      ( "unit",
        [
          Alcotest.test_case "parse" `Quick test_parse;
          Alcotest.test_case "roundtrip" `Quick test_parse_roundtrip;
          Alcotest.test_case "classify" `Quick test_classify;
          Alcotest.test_case "cq roundtrip" `Quick test_cq_roundtrip;
          Alcotest.test_case "alphabet" `Quick test_alphabet;
          Alcotest.test_case "has_empty" `Quick test_has_empty;
          Alcotest.test_case "eps disjuncts" `Quick test_eps_disjuncts;
          Alcotest.test_case "nfa cache" `Quick test_nfa_cache;
        ] );
      ("properties", [ prop_eps_equivalent ]);
    ]
