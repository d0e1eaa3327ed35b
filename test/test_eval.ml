let check = Alcotest.check

let q21 = Paper_examples.example_21_query

(* ------------------------------------------------------------------ *)
(* Example 2.1 / Figure 2                                              *)
(* ------------------------------------------------------------------ *)

let test_example_21_g () =
  let g = Paper_examples.example_21_g in
  let t = Paper_examples.example_21_g_tuple in
  check Alcotest.bool "st" true (Eval.check Semantics.St q21 g t);
  check Alcotest.bool "a-inj" true (Eval.check Semantics.A_inj q21 g t);
  check Alcotest.bool "q-inj" false (Eval.check Semantics.Q_inj q21 g t);
  (* st and a-inj coincide on all of G *)
  check Alcotest.bool "st = a-inj on G" true
    (Eval.eval Semantics.St q21 g = Eval.eval Semantics.A_inj q21 g)

let test_example_21_g' () =
  let g = Paper_examples.example_21_g' in
  let t_st = Paper_examples.example_21_g'_tuple_st in
  check Alcotest.bool "st holds" true (Eval.check Semantics.St q21 g t_st);
  check Alcotest.bool "a-inj fails" false (Eval.check Semantics.A_inj q21 g t_st);
  check Alcotest.bool "q-inj fails" false (Eval.check Semantics.Q_inj q21 g t_st);
  let t_ai = Paper_examples.example_21_g'_tuple_ainj in
  check Alcotest.bool "a-inj holds" true (Eval.check Semantics.A_inj q21 g t_ai);
  check Alcotest.bool "q-inj fails on a-inj tuple" false
    (Eval.check Semantics.Q_inj q21 g t_ai)

(* ------------------------------------------------------------------ *)
(* Remark 2.1 hierarchy, randomized                                    *)
(* ------------------------------------------------------------------ *)

let gen_instance =
  QCheck2.Gen.pair
    (Testutil.gen_crpq ~max_atoms:2 ~max_vars:3 ~arity:1 ())
    (Testutil.gen_graph ~max_nodes:4 ())

let subset l1 l2 = List.for_all (fun x -> List.mem x l2) l1

let prop_hierarchy =
  Testutil.qtest ~count:60 "Remark 2.1: q-inj ⊆ a-inj ⊆ st" gen_instance
    (fun (q, g) ->
      let st = Eval.eval Semantics.St q g in
      let ai = Eval.eval Semantics.A_inj q g in
      let qi = Eval.eval Semantics.Q_inj q g in
      subset qi ai && subset ai st)

let prop_edge_hierarchy =
  Testutil.qtest ~count:40 "edge variants: q-e-inj ⊆ a-e-inj ⊆ st" gen_instance
    (fun (q, g) ->
      let st = Eval.eval Semantics.St q g in
      let ae = Eval.eval Semantics.A_edge_inj q g in
      let qe = Eval.eval Semantics.Q_edge_inj q g in
      subset qe ae && subset ae st)

let prop_node_implies_edge =
  Testutil.qtest ~count:40 "node injectivity implies edge injectivity"
    gen_instance
    (fun (q, g) ->
      subset (Eval.eval Semantics.A_inj q g) (Eval.eval Semantics.A_edge_inj q g)
      && subset (Eval.eval Semantics.Q_inj q g) (Eval.eval Semantics.Q_edge_inj q g))

(* ------------------------------------------------------------------ *)
(* Direct evaluators vs expansion-based reference (Props 2.2, 2.3)     *)
(* ------------------------------------------------------------------ *)

let prop_vs_expansions =
  Testutil.qtest ~count:40 "direct evaluation = expansion-based evaluation"
    (QCheck2.Gen.pair
       (Testutil.gen_crpq ~max_atoms:2 ~max_vars:2 ~arity:1 ())
       (Testutil.gen_graph ~max_nodes:3 ()))
    (fun (q, g) ->
      List.for_all
        (fun sem ->
          List.for_all
            (fun v ->
              Eval.check sem q g [ v ] = Eval.check_via_expansions sem q g [ v ])
            (Graph.nodes g))
        Semantics.node_semantics)

let prop_vs_expansions_edge =
  Testutil.qtest ~count:25 "edge semantics: direct = expansion-based"
    (QCheck2.Gen.pair
       (Testutil.gen_crpq ~max_atoms:2 ~max_vars:2 ~arity:1 ())
       (Testutil.gen_graph ~max_nodes:3 ()))
    (fun (q, g) ->
      List.for_all
        (fun sem ->
          List.for_all
            (fun v ->
              Eval.check sem q g [ v ] = Eval.check_via_expansions sem q g [ v ])
            (Graph.nodes g))
        [ Semantics.A_edge_inj; Semantics.Q_edge_inj ])

(* ------------------------------------------------------------------ *)
(* Deterministic scenarios                                             *)
(* ------------------------------------------------------------------ *)

let test_atom_endpoint_distinctness () =
  (* x -[ab]-> y with distinct variables needs a simple PATH: endpoints
     must differ even though a simple ab-cycle exists *)
  let g = Generate.cycle (Word.of_string "ab") in
  let q = Crpq.parse "Q(x, y) :- x -[ab]-> y" in
  check Alcotest.bool "cycle tuple rejected (a-inj)" false
    (Eval.check Semantics.A_inj q g [ 0; 0 ]);
  check Alcotest.bool "cycle tuple accepted (st)" true
    (Eval.check Semantics.St q g [ 0; 0 ]);
  (* the self-loop atom takes the cycle *)
  let qloop = Crpq.parse "Q(x) :- x -[ab]-> x" in
  check Alcotest.bool "self-loop atom takes simple cycle" true
    (Eval.check Semantics.A_inj qloop g [ 0 ])

let test_qinj_disjointness () =
  (* two atoms needing internally disjoint paths: only one internal node *)
  let g = Graph.make ~nnodes:3 [ (0, "a", 1); (1, "b", 2); (0, "c", 1); (1, "d", 2) ] in
  let q = Crpq.parse "Q(x, y) :- x -[ab]-> y, x -[cd]-> y" in
  check Alcotest.bool "a-inj ok (sharing allowed)" true
    (Eval.check Semantics.A_inj q g [ 0; 2 ]);
  check Alcotest.bool "q-inj blocked (shared internal)" false
    (Eval.check Semantics.Q_inj q g [ 0; 2 ]);
  (* add a second middle node: q-inj succeeds *)
  let g2 = Graph.add_edges g [ (0, "c", 3); (3, "d", 2) ] in
  check Alcotest.bool "q-inj ok with disjoint middle" true
    (Eval.check Semantics.Q_inj q g2 [ 0; 2 ])

let test_qinj_mu_injective () =
  (* μ itself must be injective: Q(x,y) answering with x=y is out *)
  let g = Graph.make ~nnodes:2 [ (0, "a", 1); (1, "b", 0) ] in
  let q = Crpq.parse "Q(x, y) :- x -[a]-> y" in
  check Alcotest.bool "distinct images" true (Eval.check Semantics.Q_inj q g [ 0; 1 ]);
  let q2 = Crpq.parse "Q(x, y) :- x -[ab]-> x, y -[%]-> y" in
  (* with only two nodes, y would collide with the cycle's internal node *)
  check Alcotest.bool "y collides with internal node" false
    (Eval.check Semantics.Q_inj q2 g [ 0; 1 ]);
  check Alcotest.bool "y = x rejected" false
    (Eval.check Semantics.Q_inj q2 g [ 0; 0 ]);
  check Alcotest.bool "y = x fine under a-inj" true
    (Eval.check Semantics.A_inj q2 g [ 0; 0 ]);
  (* a third node gives y somewhere disjoint to live *)
  let g3 = Graph.add_edges g [ (2, "c", 2) ] in
  check Alcotest.bool "y on a fresh node" true
    (Eval.check Semantics.Q_inj q2 g3 [ 0; 2 ])

let test_trail_semantics () =
  (* closed trail: revisits a node but no edge *)
  let g =
    Graph.make ~nnodes:4 [ (0, "a", 1); (1, "a", 2); (2, "a", 1); (1, "a", 3) ]
  in
  let q = Crpq.parse "Q(x, y) :- x -[aaaa]-> y" in
  check Alcotest.bool "trail ok" true (Eval.check Semantics.A_edge_inj q g [ 0; 3 ]);
  check Alcotest.bool "simple path not ok" false
    (Eval.check Semantics.A_inj q g [ 0; 3 ]);
  check Alcotest.bool "standard ok" true (Eval.check Semantics.St q g [ 0; 3 ])

let test_eval_enumeration () =
  let g = Paper_examples.example_21_g in
  let st = Eval.eval Semantics.St q21 g in
  check
    (Alcotest.list (Alcotest.list Alcotest.int))
    "st tuples on G"
    [ [ 0; 0 ]; [ 0; 2 ]; [ 1; 1 ]; [ 2; 2 ] ]
    st;
  (* the diagonal is always present: both languages contain ε *)
  check Alcotest.bool "diagonal q-inj" true
    (List.for_all (fun v -> Eval.check Semantics.Q_inj q21 g [ v; v ]) (Graph.nodes g))

let test_eval_bool () =
  let g = Graph.make ~nnodes:2 [ (0, "a", 1) ] in
  check Alcotest.bool "true" true
    (Eval.eval_bool Semantics.Q_inj (Crpq.parse "x -[a]-> y") g);
  check Alcotest.bool "false" false
    (Eval.eval_bool Semantics.Q_inj (Crpq.parse "x -[b]-> y") g)

let test_arity_mismatch () =
  let g = Graph.make ~nnodes:1 [] in
  Alcotest.check_raises "arity" (Invalid_argument "Eval.check: tuple arity mismatch")
    (fun () -> ignore (Eval.check Semantics.St (Crpq.parse "Q(x) :- x -[a]-> x") g []))

(* A tuple that gives one variable two nodes is in no answer; one node
   for two free variables breaks query-injectivity only.  Every
   semantics, against the expansion oracle. *)
let test_repeated_free_vars () =
  let g = Graph.make ~nnodes:2 [ (0, "a", 1) ] in
  let repeated = Crpq.parse "Q(x, x) :- x -[a]-> y" in
  let shared = Crpq.parse "Q(x, y) :- x -[a]-> z, y -[a]-> z" in
  let shared_repeated = Crpq.parse "Q(x, y, x) :- x -[a]-> z, y -[a]-> z" in
  List.iter
    (fun sem ->
      let node_injective = sem = Semantics.Q_inj in
      let edge_injective = sem = Semantics.Q_edge_inj in
      List.iter
        (fun (name, q, t, expected) ->
          let name = Printf.sprintf "%s %s" (Semantics.to_string sem) name in
          check Alcotest.bool (name ^ " oracle") expected
            (Eval.check_via_expansions sem q g t);
          check Alcotest.bool name expected (Eval.check sem q g t))
        [
          ("consistent tuple", repeated, [ 0; 0 ], true);
          ("inconsistent tuple", repeated, [ 0; 1 ], false);
          ("inconsistent tuple, other order", repeated, [ 1; 0 ], false);
          (* the two atoms also take the one a-edge *)
          ( "two free variables, one node",
            shared,
            [ 0; 0 ],
            not (node_injective || edge_injective) );
          ("repeated and inconsistent", shared_repeated, [ 1; 0; 0 ], false);
        ])
    Semantics.all

(* A node outside the graph is in no answer: -1 (the join's "unassigned"
   marker) must not read as a free variable, and a node past the end
   must not index out of bounds.  The expansion oracle agrees. *)
let test_nodes_outside_graph () =
  let g = Graph.make ~nnodes:3 [ (0, "a", 1); (1, "a", 2) ] in
  let q = Crpq.parse "Q(x, y) :- x -[a+]-> y" in
  List.iter
    (fun sem ->
      List.iter
        (fun (t, expected) ->
          let name =
            Printf.sprintf "%s [%s]" (Semantics.to_string sem)
              (String.concat "; " (List.map string_of_int t))
          in
          check Alcotest.bool (name ^ " oracle") expected
            (Eval.check_via_expansions sem q g t);
          check Alcotest.bool name expected (Eval.check sem q g t))
        [ ([ 0; 2 ], true); ([ -1; 2 ], false); ([ 0; 7 ], false); ([ 3; 3 ], false) ])
    Semantics.all

(* St instances whose full profile product, with every atom's words
   bounded by the largest automaton, runs to 1022 x 1022 expansions: the
   oracle must bound each atom by its own automaton, drop words that
   label no walk of the graph and stop at the first profile that maps. *)
let test_oracle_instances () =
  let cases =
    [
      ( "Q(v0) :- v0 -[(c|b)+]-> v1, v1 -[(b|a)+]-> v1",
        Graph.make ~nnodes:3
          [
            (0, "a", 2); (0, "b", 0); (1, "a", 2); (1, "b", 2); (1, "c", 2); (2, "b", 1);
          ],
        [ true; true; true ] );
      ( "Q(v0) :- v0 -[b*(b|c)]-> v0, v0 -[(b|a)+]-> v1",
        Graph.make ~nnodes:3
          [
            (0, "b", 0); (0, "b", 1); (0, "b", 2); (1, "a", 2); (1, "c", 0); (2, "a", 0);
          ],
        [ true; false; false ] );
      ( "Q(v0) :- v1 -[c+(a|c)]-> v1, v1 -[(a|c)*]-> v0",
        Graph.make ~nnodes:3 [],
        [ false; false; false ] );
    ]
  in
  List.iter
    (fun (text, g, expected) ->
      let q = Crpq.parse text in
      List.iteri
        (fun v expected ->
          let name = Printf.sprintf "%s at %d" text v in
          check Alcotest.bool (name ^ " oracle") expected
            (Eval.check_via_expansions Semantics.St q g [ v ]);
          check Alcotest.bool name expected (Eval.check Semantics.St q g [ v ]))
        expected)
    cases

let () =
  Alcotest.run "eval"
    [
      ( "paper",
        [
          Alcotest.test_case "example 2.1 on G" `Quick test_example_21_g;
          Alcotest.test_case "example 2.1 on G'" `Quick test_example_21_g';
        ] );
      ( "unit",
        [
          Alcotest.test_case "endpoint distinctness" `Quick
            test_atom_endpoint_distinctness;
          Alcotest.test_case "q-inj disjointness" `Quick test_qinj_disjointness;
          Alcotest.test_case "q-inj injective mu" `Quick test_qinj_mu_injective;
          Alcotest.test_case "trail semantics" `Quick test_trail_semantics;
          Alcotest.test_case "enumeration" `Quick test_eval_enumeration;
          Alcotest.test_case "eval_bool" `Quick test_eval_bool;
          Alcotest.test_case "arity mismatch" `Quick test_arity_mismatch;
          Alcotest.test_case "repeated free vars" `Quick test_repeated_free_vars;
          Alcotest.test_case "nodes outside the graph" `Quick test_nodes_outside_graph;
          Alcotest.test_case "expansion oracle instances" `Quick test_oracle_instances;
        ] );
      ( "properties",
        [
          prop_hierarchy;
          prop_edge_hierarchy;
          prop_node_implies_edge;
          prop_vs_expansions;
          prop_vs_expansions_edge;
        ] );
    ]
