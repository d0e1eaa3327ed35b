let check = Alcotest.check

let u strs = Ucrpq.make (List.map Crpq.parse strs)

let test_make () =
  let v = u [ "Q(x) :- x -[a]-> y"; "Q(x) :- x -[b]-> y" ] in
  check Alcotest.int "arity" 1 v.Ucrpq.arity;
  check Alcotest.int "two disjuncts" 2 (List.length v.Ucrpq.disjuncts);
  Alcotest.check_raises "empty" (Invalid_argument "Ucrpq.make: empty union")
    (fun () -> ignore (Ucrpq.make []));
  Alcotest.check_raises "mixed arity"
    (Invalid_argument "Ucrpq.make: disjuncts of different arities") (fun () ->
      ignore (u [ "Q(x) :- x -[a]-> y"; "x -[b]-> y" ]))

let test_classify () =
  let cls_str = function
    | Crpq.Class_cq -> "cq"
    | Crpq.Class_fin -> "fin"
    | Crpq.Class_crpq -> "crpq"
  in
  check Alcotest.string "cq union" "cq"
    (cls_str (Ucrpq.classify (u [ "x -[a]-> y"; "x -[b]-> y" ])));
  check Alcotest.string "mixed" "crpq"
    (cls_str (Ucrpq.classify (u [ "x -[a]-> y"; "x -[b*]-> y" ])))

let test_eval_union () =
  let g = Graph.make ~nnodes:3 [ (0, "a", 1); (1, "b", 2) ] in
  let v = u [ "Q(x, y) :- x -[a]-> y"; "Q(x, y) :- x -[b]-> y" ] in
  check
    (Alcotest.list (Alcotest.list Alcotest.int))
    "union of answers"
    [ [ 0; 1 ]; [ 1; 2 ] ]
    (Ucrpq.eval Semantics.St v g);
  check Alcotest.bool "check 0,1" true (Ucrpq.check Semantics.Q_inj v g [ 0; 1 ]);
  check Alcotest.bool "check 0,2" false (Ucrpq.check Semantics.St v g [ 0; 2 ]);
  check Alcotest.bool "bool" true (Ucrpq.eval_bool Semantics.A_inj v g);
  (* the empty union has no answers *)
  check Alcotest.bool "empty union" false
    (Ucrpq.eval_bool Semantics.St (Ucrpq.empty ~arity:0) g)

let expect name expected verdict =
  match Containment.verdict_bool verdict with
  | Some b -> check Alcotest.bool name expected b
  | None -> Alcotest.failf "%s: undecided" name

let test_containment_finite () =
  (* a | b  ⊆  a|b (single query), and conversely *)
  let left = u [ "x -[a]-> y"; "x -[b]-> y" ] in
  let right = u [ "x -[a|b]-> y" ] in
  List.iter
    (fun sem ->
      expect "split ⊆ alt" true (Ucrpq.contained sem left right);
      expect "alt ⊆ split" true (Ucrpq.contained sem right left))
    Semantics.node_semantics;
  (* dropping a disjunct breaks one direction *)
  let smaller = u [ "x -[a]-> y" ] in
  expect "smaller ⊆ left" true (Ucrpq.contained Semantics.St smaller left);
  expect "left ⊄ smaller" false (Ucrpq.contained Semantics.St left smaller)

let test_containment_qinj_union () =
  (* infinite languages: the union-aware Theorem 5.1 algorithm *)
  let left = u [ "x -[a+]-> y" ] in
  let right = u [ "x -[(aa)+]-> y"; "x -[a(aa)*]-> y" ] in
  (* a+ = even-length ∪ odd-length a-words *)
  expect "parity split covers a+" true (Ucrpq.contained Semantics.Q_inj left right);
  expect "even ⊆ a+" true (Ucrpq.contained Semantics.Q_inj (u [ "x -[(aa)+]-> y" ]) left);
  expect "a+ ⊄ even" false
    (Ucrpq.contained Semantics.Q_inj left (u [ "x -[(aa)+]-> y" ]))

let test_equivalent () =
  let left = u [ "x -[a]-> y"; "x -[b]-> y" ] in
  let right = u [ "x -[a|b]-> y" ] in
  check (Alcotest.option Alcotest.bool) "equivalent" (Some true)
    (Ucrpq.equivalent Semantics.St left right);
  check (Alcotest.option Alcotest.bool) "not equivalent" (Some false)
    (Ucrpq.equivalent Semantics.St left (u [ "x -[a]-> y" ]));
  (* single queries: equivalence of singleton unions *)
  let a_plus = u [ "Q(x, y) :- x -[a+]-> y" ] in
  check (Alcotest.option Alcotest.bool) "a+ = a|aa+" (Some true)
    (Ucrpq.equivalent Semantics.Q_inj a_plus (u [ "Q(x, y) :- x -[a|aa+]-> y" ]));
  check (Alcotest.option Alcotest.bool) "a+ <> a*" (Some false)
    (Ucrpq.equivalent Semantics.Q_inj a_plus (u [ "Q(x, y) :- x -[a*]-> y" ]))

let prop_union_monotone =
  Testutil.qtest ~count:40 "evaluation is monotone in the union"
    (QCheck2.Gen.pair
       (Testutil.gen_crpq ~max_atoms:2 ~arity:1 ())
       (Testutil.gen_graph ~max_nodes:3 ()))
    (fun (q, g) ->
      let single = Ucrpq.of_crpq q in
      let bigger = Ucrpq.union single single in
      List.for_all
        (fun sem -> Ucrpq.eval sem single g = Ucrpq.eval sem bigger g)
        Semantics.node_semantics)

let prop_disjunct_contained =
  Testutil.qtest ~count:30 "every finite disjunct is contained in its union"
    QCheck2.Gen.(
      pair
        (Testutil.gen_crpq ~cls:Crpq.Class_fin ~max_atoms:2 ())
        (Testutil.gen_crpq ~cls:Crpq.Class_fin ~max_atoms:2 ()))
    (fun (q1, q2) ->
      QCheck2.assume (List.length q1.Crpq.free = List.length q2.Crpq.free);
      let big = Ucrpq.make [ q1; q2 ] in
      List.for_all
        (fun sem ->
          match Ucrpq.contained sem (Ucrpq.of_crpq q1) big with
          | Containment.Contained -> true
          | _ -> false)
        Semantics.node_semantics)

(* lhs-union containment decomposes exactly: q1∨q2 ⊆ r iff q1 ⊆ r and
   q2 ⊆ r — cross-check the union decider against singleton deciders *)
let prop_lhs_union_decomposes =
  Testutil.qtest ~count:25 "lhs union containment = conjunction of singleton ones"
    QCheck2.Gen.(
      triple
        (Testutil.gen_crpq ~cls:Crpq.Class_fin ~max_atoms:2 ())
        (Testutil.gen_crpq ~cls:Crpq.Class_fin ~max_atoms:2 ())
        (Testutil.gen_crpq ~cls:Crpq.Class_fin ~max_atoms:2 ()))
    (fun (q1, q2, r) ->
      List.for_all
        (fun sem ->
          let one q =
            match
              Containment.verdict_bool
                (Ucrpq.contained sem (Ucrpq.of_crpq q) (Ucrpq.of_crpq r))
            with
            | Some b -> b
            | None -> false
          in
          let union =
            match
              Containment.verdict_bool
                (Ucrpq.contained sem (Ucrpq.make [ q1; q2 ]) (Ucrpq.of_crpq r))
            with
            | Some b -> b
            | None -> false
          in
          union = (one q1 && one q2))
        Semantics.node_semantics)

(* rhs-union containment is monotone: adding disjuncts on the right can
   only help *)
let prop_rhs_union_monotone =
  Testutil.qtest ~count:25 "rhs union containment is monotone"
    QCheck2.Gen.(
      triple
        (Testutil.gen_crpq ~cls:Crpq.Class_fin ~max_atoms:2 ())
        (Testutil.gen_crpq ~cls:Crpq.Class_fin ~max_atoms:2 ())
        (Testutil.gen_crpq ~cls:Crpq.Class_fin ~max_atoms:2 ()))
    (fun (q, r1, r2) ->
      List.for_all
        (fun sem ->
          let contained rhs =
            match
              Containment.verdict_bool
                (Ucrpq.contained sem (Ucrpq.of_crpq q) rhs)
            with
            | Some b -> b
            | None -> false
          in
          (not (contained (Ucrpq.of_crpq r1)))
          || contained (Ucrpq.make [ r1; r2 ]))
        Semantics.node_semantics)

(* A pair with an infinite left query under st: the bounded search finds
   no counterexample among 1302 expansions, but Theorem 5.1 certifies the
   query-injective containment, which implies the standard one.  The
   union decider must answer like [Containment.decide]. *)
let test_st_certified_union () =
  let lhs =
    "Q() :- v0 -[(b|a)*]-> v0, v0 -[a?]-> v1, v2 -[a?b+]-> v0, v2 -[(a|b)?]-> v2"
  and rhs = "Q() :- v0 -[(b|a)*|a]-> v0, v0 -[a?|a]-> v1, v2 -[(a|b)?]-> v2" in
  let name = Containment.verdict_name in
  check Alcotest.string "decide" "contained"
    (name (Containment.decide Semantics.St (Crpq.parse lhs) (Crpq.parse rhs)));
  check Alcotest.string "union" "contained"
    (name (Ucrpq.contained Semantics.St (u [ lhs ]) (u [ rhs ])))

(* Singleton unions whose pair only a single-query procedure decides
   exactly: RPQ inclusion under a-inj, the Prop F.7 window algorithm
   under st.  A union decider with its own, smaller strategy list
   answers these [unknown]. *)
let test_single_query_procedures () =
  List.iter
    (fun (sem, lhs, rhs) ->
      check Alcotest.string
        (Printf.sprintf "%s: %s <= %s" (Semantics.to_string sem) lhs rhs)
        "contained"
        (Containment.verdict_name (Ucrpq.contained sem (u [ lhs ]) (u [ rhs ]))))
    [
      (Semantics.A_inj, "Q(x, y) :- x -[a+]-> y", "Q(x, y) :- x -[a*]-> y");
      (Semantics.A_inj, "Q(x, y) :- x -[(ab)+]-> y", "Q(x, y) :- x -[a(ba)*b]-> y");
      (Semantics.St, "Q(x, y) :- x -[aa*]-> y", "Q(x, y) :- x -[a]-> z");
      ( Semantics.St,
        "Q(x, y) :- x -[a+]-> y, y -[b]-> z",
        "Q(x, y) :- x -[a]-> w, u -[b]-> z" );
    ]

(* A singleton union is decided by [Containment.decide] itself: same
   verdict, same witness expansion and tuple, and, on budget
   exhaustion, the same search size. *)
let prop_singleton_matches_containment =
  let bound = 2 in
  Testutil.qtest ~count:40 "singleton union = Containment.decide"
    QCheck2.Gen.(
      let* arity = int_bound 2 in
      let* q1 = Testutil.gen_crpq ~max_atoms:2 ~arity () in
      let* q2 = Testutil.gen_crpq ~max_atoms:2 ~arity () in
      let* sem = oneofl Semantics.node_semantics in
      return (q1, q2, sem))
    (fun (q1, q2, sem) ->
      let single = Containment.decide ~bound sem q1 q2 in
      let union = Ucrpq.contained ~bound sem (Ucrpq.of_crpq q1) (Ucrpq.of_crpq q2) in
      let same =
        match single, union with
        | Containment.Contained, Containment.Contained -> true
        | Containment.Not_contained w1, Containment.Not_contained w2 ->
          w1.Containment.expansion.Expansion.cq = w2.Containment.expansion.Expansion.cq
          && w1.Containment.tuple = w2.Containment.tuple
        | Containment.Unknown r1, Containment.Unknown r2 ->
          Containment.reason_to_string r1 = Containment.reason_to_string r2
        | _ -> false
      in
      if same then true
      else
        QCheck2.Test.fail_reportf "%s under %s:@.single %a@.union  %a"
          (Testutil.print_pair_crpq (q1, q2))
          (Semantics.to_string sem) Containment.pp_verdict single
          Containment.pp_verdict union)

let () =
  Alcotest.run "ucrpq"
    [
      ( "unit",
        [
          Alcotest.test_case "make" `Quick test_make;
          Alcotest.test_case "classify" `Quick test_classify;
          Alcotest.test_case "eval" `Quick test_eval_union;
          Alcotest.test_case "containment (finite)" `Quick test_containment_finite;
          Alcotest.test_case "containment (q-inj union)" `Quick
            test_containment_qinj_union;
          Alcotest.test_case "equivalent" `Quick test_equivalent;
          Alcotest.test_case "st union settled by Theorem 5.1" `Quick
            test_st_certified_union;
          Alcotest.test_case "single-query procedures" `Quick
            test_single_query_procedures;
        ] );
      ( "properties",
        [
          prop_union_monotone;
          prop_disjunct_contained;
          prop_lhs_union_decomposes;
          prop_rhs_union_monotone;
          prop_singleton_matches_containment;
        ] );
    ]
