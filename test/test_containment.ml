let check = Alcotest.check

let decide sem q1 q2 = Containment.decide sem q1 q2

let expect_bool name expected verdict =
  match Containment.verdict_bool verdict with
  | Some b -> check Alcotest.bool name expected b
  | None -> Alcotest.failf "%s: verdict unknown" name

(* ------------------------------------------------------------------ *)
(* Example 4.7: the containment relations are incomparable             *)
(* ------------------------------------------------------------------ *)

let test_example_47 () =
  List.iter
    (fun (name, sem, q1, q2, expected) ->
      expect_bool
        (Printf.sprintf "%s under %s" name (Semantics.to_string sem))
        expected (decide sem q1 q2))
    Paper_examples.example_47_expectations

(* counterexamples returned must actually defeat Q2 *)
let test_counterexample_validity () =
  List.iter
    (fun (_, sem, q1, q2, expected) ->
      if not expected then
        match decide sem q1 q2 with
        | Containment.Not_contained w ->
          check Alcotest.bool "witness defeats q2" true
            (Containment.is_counterexample sem q2 w.Containment.expansion);
          ignore q1
        | _ -> Alcotest.fail "expected a counterexample")
    Paper_examples.example_47_expectations

(* ------------------------------------------------------------------ *)
(* Deterministic cases                                                 *)
(* ------------------------------------------------------------------ *)

let test_basic_cases () =
  let c s q1 q2 = decide s (Crpq.parse q1) (Crpq.parse q2) in
  (* reflexivity on all semantics *)
  List.iter
    (fun sem ->
      expect_bool "reflexive" true (c sem "x -[ab]-> y" "x -[ab]-> y"))
    Semantics.node_semantics;
  (* relaxing the language *)
  expect_bool "a in a|b (st)" true (c Semantics.St "x -[a]-> y" "x -[a|b]-> y");
  expect_bool "a|b not in a (st)" false (c Semantics.St "x -[a|b]-> y" "x -[a]-> y");
  (* dropping an atom *)
  expect_bool "two atoms in one (st)" true
    (c Semantics.St "x -[a]-> y, y -[b]-> z" "x -[a]-> y");
  (* the unsatisfiable query is contained in everything *)
  expect_bool "empty lhs" true (c Semantics.A_inj "x -[!]-> y" "x -[a]-> y")

let test_eps_subtleties () =
  let c s q1 q2 = decide s (Crpq.parse q1) (Crpq.parse q2) in
  (* a* contains the ε-collapse: a+ lacks it *)
  expect_bool "a* not in a+ (st)" false (c Semantics.St "Q(x,y) :- x -[a*]-> y" "Q(x,y) :- x -[a+]-> y");
  expect_bool "a+ in a* (st)" true (c Semantics.St "Q(x,y) :- x -[a+]-> y" "Q(x,y) :- x -[a*]-> y")

let test_strategies () =
  let s sem q1 q2 = Containment.strategy_name sem (Crpq.parse q1) (Crpq.parse q2) in
  check Alcotest.string "cq" "cq-homomorphism" (s Semantics.St "x -[a]-> y" "x -[b]-> y");
  check Alcotest.string "finite lhs" "finite-expansion enumeration"
    (s Semantics.St "x -[ab]-> y" "x -[a*]-> y");
  check Alcotest.string "qinj abstraction" "abstraction algorithm (Thm 5.1)"
    (s Semantics.Q_inj "x -[a+]-> y" "x -[a*]-> y");
  check Alcotest.string "bounded" "bounded counterexample search"
    (s Semantics.A_inj "x -[a+]-> y" "x -[a*]-> y")

let test_edge_semantics_rejected () =
  Alcotest.check_raises "edge semantics"
    (Invalid_argument "Containment: edge semantics not supported (Section 7)")
    (fun () ->
      ignore (decide Semantics.A_edge_inj (Crpq.parse "x -[a]-> y") (Crpq.parse "x -[a]-> y")));
  (* every entry into the expansion search rejects edge semantics the
     same way, the public search itself included *)
  let q1 = Crpq.parse "x -[a+]-> y" and q2 = Crpq.parse "x -[a]-> y" in
  List.iter
    (fun (name, run) ->
      List.iter
        (fun sem ->
          Alcotest.check_raises name
            (Invalid_argument "Containment: edge semantics not supported (Section 7)")
            (fun () -> ignore (run sem)))
        [ Semantics.A_edge_inj; Semantics.Q_edge_inj ])
    [
      ("search", fun sem -> Containment.search sem ~max_len:(Some 2) [ q1 ] [ q2 ]);
      ("finite_lhs", fun sem -> Containment.finite_lhs sem q2 q1);
      ("bounded", fun sem -> Containment.bounded sem ~max_len:2 q1 q2);
      ( "Ucrpq.contained",
        fun sem -> Ucrpq.contained sem (Ucrpq.of_crpq q1) (Ucrpq.of_crpq q2) );
    ]

let test_arity_mismatch () =
  Alcotest.check_raises "arity" (Invalid_argument "Containment: queries of different arities")
    (fun () ->
      ignore
        (decide Semantics.St (Crpq.parse "Q(x) :- x -[a]-> y") (Crpq.parse "x -[a]-> y")))

(* ------------------------------------------------------------------ *)
(* Cross-validation properties                                         *)
(* ------------------------------------------------------------------ *)

(* CQ/CQ homomorphism deciders agree with finite expansion enumeration *)
let prop_cq_deciders_agree =
  Testutil.qtest ~count:50 "cq_cq agrees with finite_lhs"
    (QCheck2.Gen.pair
       (Testutil.gen_crpq ~cls:Crpq.Class_cq ~max_atoms:2 ~max_vars:3 ())
       (Testutil.gen_crpq ~cls:Crpq.Class_cq ~max_atoms:2 ~max_vars:3 ()))
    (fun (q1, q2) ->
      List.for_all
        (fun sem ->
          let via_hom =
            Containment.cq_cq sem (Option.get (Crpq.to_cq q1))
              (Option.get (Crpq.to_cq q2))
          in
          match Containment.finite_lhs sem q1 q2 with
          | Containment.Contained -> via_hom
          | Containment.Not_contained _ -> not via_hom
          | Containment.Unknown _ -> false)
        Semantics.node_semantics)

(* semantic soundness: a Contained verdict survives random databases *)
let prop_contained_sound =
  Testutil.qtest ~count:30 "Contained verdicts hold on random databases"
    QCheck2.Gen.(
      triple
        (Testutil.gen_crpq ~cls:Crpq.Class_fin ~max_atoms:2 ~max_vars:2 ())
        (Testutil.gen_crpq ~cls:Crpq.Class_fin ~max_atoms:2 ~max_vars:2 ())
        (Testutil.gen_graph ~max_nodes:3 ()))
    (fun (q1, q2, g) ->
      List.for_all
        (fun sem ->
          match Containment.finite_lhs sem q1 q2 with
          | Containment.Contained ->
            List.for_all
              (fun t -> (not (Eval.check sem q1 g t)) || Eval.check sem q2 g t)
              (List.map (fun v -> List.map (fun _ -> v) q1.Crpq.free) (Graph.nodes g))
            && ((not (Eval.eval_bool sem q1 g)) || Eval.eval_bool sem q2 g)
          | Containment.Not_contained w ->
            Containment.is_counterexample sem q2 w.Containment.expansion
          | Containment.Unknown _ -> false)
        Semantics.node_semantics)

(* Lemma F.3: CQ/CQ a-inj containment = non-contracting hom existence,
   cross-checked against the merge-based enumeration *)
let prop_lemma_f3 =
  Testutil.qtest ~count:60 "Lemma F.3 non-contracting characterization"
    (QCheck2.Gen.pair
       (Testutil.gen_cq ~max_atoms:3 ~max_vars:3 ())
       (Testutil.gen_cq ~max_atoms:3 ~max_vars:3 ()))
    (fun (c1, c2) ->
      let q1 = Crpq.of_cq c1 and q2 = Crpq.of_cq c2 in
      let via_hom = Cq.non_contracting_hom_exists c2 c1 in
      match Containment.finite_lhs Semantics.A_inj q1 q2 with
      | Containment.Contained -> via_hom
      | Containment.Not_contained _ -> not via_hom
      | Containment.Unknown _ -> false)

(* §4.1: both injective containments imply standard containment, while
   q-inj and a-inj containment are incomparable (Example 4.7 shows the
   non-implications; here we check the implications on random finite
   pairs where all three deciders are exact) *)
let prop_injective_implies_standard =
  Testutil.qtest ~count:40 "q-inj or a-inj containment implies st containment"
    (QCheck2.Gen.pair
       (Testutil.gen_crpq ~cls:Crpq.Class_fin ~max_atoms:2 ~max_vars:3 ())
       (Testutil.gen_crpq ~cls:Crpq.Class_fin ~max_atoms:2 ~max_vars:3 ()))
    (fun (q1, q2) ->
      let decide sem =
        match Containment.verdict_bool (Containment.finite_lhs sem q1 q2) with
        | Some b -> b
        | None -> false
      in
      let st = decide Semantics.St in
      ((not (decide Semantics.Q_inj)) || st)
      && ((not (decide Semantics.A_inj)) || st))

let () =
  Alcotest.run "containment"
    [
      ( "paper",
        [
          Alcotest.test_case "example 4.7" `Quick test_example_47;
          Alcotest.test_case "counterexamples valid" `Quick test_counterexample_validity;
        ] );
      ( "unit",
        [
          Alcotest.test_case "basic cases" `Quick test_basic_cases;
          Alcotest.test_case "epsilon subtleties" `Quick test_eps_subtleties;
          Alcotest.test_case "strategies" `Quick test_strategies;
          Alcotest.test_case "edge semantics rejected" `Quick test_edge_semantics_rejected;
          Alcotest.test_case "arity mismatch" `Quick test_arity_mismatch;
        ] );
      ( "properties",
        [
          prop_cq_deciders_agree;
          prop_contained_sound;
          prop_lemma_f3;
          prop_injective_implies_standard;
        ] );
    ]
