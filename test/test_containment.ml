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
    (s Semantics.A_inj "x -[a+]-> y" "x -[a*]-> y");
  check Alcotest.string "st bounded"
    "Thm 5.1 certificate, then bounded counterexample search"
    (s Semantics.St "x -[a+]-> y" "x -[a*]-> y")

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

(* Under st the Theorem 5.1 certificate comes before the bounded search:
   this pair's search would refute 1302 expansions without finding a
   counterexample, but the certificate settles it first.  The optimizer
   pre-pass is off: its own certificates enumerate expansions. *)
let m_expansions = Obs.Metrics.counter "containment.expansions_enumerated"

let with_metrics f =
  let was = Obs.Metrics.enabled () in
  Obs.Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.Metrics.set_enabled was) f

let without_optimizer f =
  Fun.protect ~finally:Testutil.install_env_preprocessor (fun () ->
      Analysis.uninstall_preprocessor ();
      f ())

let test_st_certificate_first () =
  let q1 =
    Crpq.parse
      "Q() :- v0 -[(b|a)*]-> v0, v0 -[a?]-> v1, v2 -[a?b+]-> v0, v2 -[(a|b)?]-> v2"
  and q2 = Crpq.parse "Q() :- v0 -[(b|a)*|a]-> v0, v0 -[a?|a]-> v1, v2 -[(a|b)?]-> v2" in
  without_optimizer (fun () ->
      with_metrics (fun () ->
          let before = Obs.Metrics.counter_value m_expansions in
          let v = decide Semantics.St q1 q2 in
          check Alcotest.string "verdict" "contained" (Containment.verdict_name v);
          check Alcotest.int "expansions enumerated" 0
            (Obs.Metrics.counter_value m_expansions - before)))

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

(* The St order: certificate first, then the bounded search.  Both
   directions of Qgen's contained-biased pairs: a certified pair has no
   counterexample within the bound, and [decide] answers exactly like a
   reference that runs the former order (the bounded search, then the
   certificate when it is inconclusive) on every pair that reaches the
   bounded search, Prop F.7's fallback included.  The optimizer pre-pass
   is off, so both sides see the same queries. *)
let certifies q1 q2 =
  match Containment_qinj.decide q1 q2 with
  | Containment_qinj.Qinj_contained -> true
  | Containment_qinj.Qinj_not_contained _ | (exception Containment_qinj.Unsupported _)
    ->
    false

let verdict_repr = function
  | Containment.Contained -> "contained"
  | Containment.Not_contained w ->
    Format.asprintf "not-contained %a at %s" Cq.pp w.Containment.expansion.Expansion.cq
      (String.concat "," (List.map string_of_int w.Containment.tuple))
  | Containment.Unknown (Containment.Budget_exhausted e) ->
    Printf.sprintf "unknown: %d expansions within %d" e.Containment.expansions_enumerated
      e.Containment.bound_reached
  | Containment.Unknown r -> "unknown: " ^ Containment.reason_to_string r

let reaches_bounded_search q1 q2 =
  match Containment.strategy_name Semantics.St q1 q2 with
  | "Thm 5.1 certificate, then bounded counterexample search" -> true
  | "window algorithm (Prop F.7)" -> (
    match Containment_f7.decide_st q1 q2 with
    | _ -> false
    | exception Containment_f7.Unsupported _ -> true)
  | _ -> false

let prop_st_certificate_first =
  Testutil.qtest ~count:60 "st: certificate first, verdicts as before"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| 0xC3F; seed |] in
      let cls = if Random.State.bool rng then Crpq.Class_fin else Crpq.Class_crpq in
      let q1, q2 =
        Qgen.contained_pair ~rng ~labels:[ "a"; "b" ] ~nvars:3 ~natoms:2 ~cls ()
      in
      without_optimizer (fun () ->
          List.for_all
            (fun (l, r) ->
              let bounded = Containment.bounded Semantics.St ~max_len:4 l r in
              let certified = certifies l r in
              (match certified, bounded with
              | true, Containment.Not_contained w ->
                QCheck2.Test.fail_reportf "%s vs %s: certified, but %a defeats it"
                  (Crpq.to_string l) (Crpq.to_string r) Cq.pp
                  w.Containment.expansion.Expansion.cq
              | _ -> ());
              (not (reaches_bounded_search l r))
              ||
              let want =
                match bounded with
                | Containment.Unknown _ when certified -> Containment.Contained
                | v -> v
              in
              let got = verdict_repr (Containment.decide Semantics.St l r) in
              got = verdict_repr want
              || QCheck2.Test.fail_reportf "%s vs %s@.decide:    %s@.reference: %s"
                   (Crpq.to_string l) (Crpq.to_string r) got (verdict_repr want))
            [ (q1, q2); (q2, q1) ]))

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
          Alcotest.test_case "st certificate first" `Quick test_st_certificate_first;
        ] );
      ( "properties",
        [
          prop_cq_deciders_agree;
          prop_contained_sound;
          prop_lemma_f3;
          prop_injective_implies_standard;
          prop_st_certificate_first;
        ] );
    ]
