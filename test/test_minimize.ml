let check = Alcotest.check

let test_equivalent () =
  let q1 = Crpq.parse "Q(x, y) :- x -[a+]-> y" in
  let q2 = Crpq.parse "Q(x, y) :- x -[a|aa+]-> y" in
  check (Alcotest.option Alcotest.bool) "a+ = a|aa+" (Some true)
    (Minimize.equivalent Semantics.Q_inj q1 q2);
  check (Alcotest.option Alcotest.bool) "a+ <> a*" (Some false)
    (Minimize.equivalent Semantics.Q_inj q1 (Crpq.parse "Q(x, y) :- x -[a*]-> y"))

let test_satisfiable () =
  check Alcotest.bool "sat" true (Minimize.is_satisfiable (Crpq.parse "x -[a]-> y"));
  check Alcotest.bool "unsat" false (Minimize.is_satisfiable (Crpq.parse "x -[!]-> y"))

let test_prune_languages () =
  let q = Crpq.parse "Q(x, y) :- x -[a|a|a]-> y" in
  let p = Minimize.prune_languages q in
  check Alcotest.bool "shrank" true
    (List.for_all
       (fun (a : Crpq.atom) -> Regex.size a.Crpq.lang <= 1)
       p.Crpq.atoms)

let prop_prune_preserves_language =
  Testutil.qtest ~count:30 "pruning languages preserves them"
    (Testutil.gen_crpq ~max_atoms:2 ())
    (fun q ->
      let p = Minimize.prune_languages q in
      List.for_all2
        (fun (a : Crpq.atom) (b : Crpq.atom) ->
          Dfa.regex_equivalent a.Crpq.lang b.Crpq.lang)
        q.Crpq.atoms p.Crpq.atoms)

let () =
  Alcotest.run "minimize"
    [
      ( "unit",
        [
          Alcotest.test_case "equivalent" `Quick test_equivalent;
          Alcotest.test_case "satisfiable" `Quick test_satisfiable;
          Alcotest.test_case "prune languages" `Quick test_prune_languages;
        ] );
      ( "properties",
        [ prop_prune_preserves_language ] );
    ]
