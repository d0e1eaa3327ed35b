let check = Alcotest.check

let q = Paper_examples.example_21_query (* x -[(ab)*]-> y ∧ y -[c*]-> x *)

(* Section 2.2's two example expansions *)
let test_example_e1 () =
  let e = Paper_examples.example_22_e1 in
  (* E1(x,x) = x -a-> z ∧ z -b-> x *)
  check Alcotest.int "two atoms" 2 (List.length e.Expansion.cq.Cq.atoms);
  check Alcotest.int "two vars" 2 (Cq.nvars e.Expansion.cq);
  (* the ε-atom collapsed x and y: the free tuple repeats one variable *)
  check Alcotest.bool "free tuple collapsed" true
    (match e.Expansion.cq.Cq.free with [ a; b ] -> a = b | _ -> false)

let test_example_e2 () =
  let e = Paper_examples.example_22_e2 in
  check Alcotest.int "three atoms" 3 (List.length e.Expansion.cq.Cq.atoms);
  check Alcotest.int "three vars" 3 (Cq.nvars e.Expansion.cq);
  check Alcotest.bool "free tuple distinct" true
    (match e.Expansion.cq.Cq.free with [ a; b ] -> a <> b | _ -> false)

let test_expand_checks_membership () =
  Alcotest.check_raises "word not in language"
    (Invalid_argument "Expansion.expand: word a not in language (ab)*")
    (fun () -> ignore (Expansion.expand q [| [ "a" ]; [] |]))

let test_atom_related () =
  (* expansion of x -[ab]-> y: all three vars pairwise atom-related *)
  let q = Crpq.parse "x -[ab]-> y" in
  let e = Expansion.expand q [| Word.of_string "ab" |] in
  check Alcotest.int "three pairs" 3 (List.length e.Expansion.atom_related);
  (* self-loop atom: src and dst coincide, so only pairs with the internal var *)
  let q2 = Crpq.parse "x -[ab]-> x" in
  let e2 = Expansion.expand q2 [| Word.of_string "ab" |] in
  check Alcotest.int "cycle pairs" 1 (List.length e2.Expansion.atom_related)

let test_profiles_count () =
  (* (ab)* within length 2: ε, ab; c* within length 2: ε, c, cc *)
  let ps = Expansion.profiles ~max_len:2 q in
  check Alcotest.int "2 * 3 profiles" 6 (List.length ps)

let test_finite_expansions () =
  let q = Crpq.parse "x -[a|bb]-> y, y -[c]-> z" in
  check Alcotest.int "two expansions" 2 (List.length (Expansion.finite_expansions q));
  Alcotest.check_raises "infinite raises"
    (Invalid_argument "Expansion.finite_expansions: query has infinite languages")
    (fun () -> ignore (Expansion.finite_expansions (Crpq.parse "x -[a*]-> y")))

let test_merges_bell () =
  (* an expansion with 3 variables and no constraints: Bell(3) = 5 merges *)
  let q = Crpq.parse "x -[a]-> y, u -[b]-> v" in
  (* atoms are kept sorted: (u, b, v) comes first *)
  let e = Expansion.expand q [| [ "b" ]; [ "a" ] |] in
  (* 4 vars; forbidden pairs: (x,y) and (u,v); partitions of 4 elements
     avoiding two disjoint forbidden pairs: 15 total Bell(4), minus those
     merging x~y or u~v *)
  let ms = Expansion.merges e in
  check Alcotest.bool "identity present" true
    (List.exists (fun m -> Cq.nvars m.Expansion.cq = 4) ms);
  (* count by brute force definition *)
  check Alcotest.int "valid partitions" 7 (List.length ms)

let test_merge_specific () =
  let q = Crpq.parse "x -[a]-> y, y -[b]-> z" in
  let e = Expansion.expand q [| [ "a" ]; [ "b" ] |] in
  let m = Expansion.merge e [ ("x", "z") ] in
  check Alcotest.int "two vars" 2 (Cq.nvars m.Expansion.cq);
  Alcotest.check_raises "atom-related collapse rejected"
    (Invalid_argument "Expansion.merge: an atom-related pair would collapse")
    (fun () -> ignore (Expansion.merge e [ ("x", "y") ]))

let test_ainj_expansions () =
  let q = Crpq.parse "x -[a]-> y, y -[b]-> z" in
  (* expansions: single profile; merges: vars x,y,z with forbidden (x,y),(y,z):
     partitions: all-singleton, {x,z}: 2 *)
  let es = Expansion.ainj_expansions ~max_len:2 q in
  check Alcotest.int "two a-inj expansions" 2 (List.length es)

let test_to_graph () =
  let e = Paper_examples.example_22_e2 in
  let g, free = Expansion.to_graph e in
  check Alcotest.int "3 nodes" 3 (Graph.nnodes g);
  check Alcotest.int "3 edges" 3 (Graph.nedges g);
  check Alcotest.int "free tuple arity" 2 (List.length free)

let prop_expansion_words_match =
  Testutil.qtest ~count:50 "every expansion profile matches the languages"
    (Testutil.gen_crpq ~max_atoms:2 ())
    (fun q ->
      List.for_all
        (fun e ->
          List.for_all2
            (fun (a : Crpq.atom) w -> Regex.matches a.Crpq.lang w)
            q.Crpq.atoms
            (Array.to_list e.Expansion.profile))
        (Expansion.expansions ~max_len:2 q))

let prop_atom_related_distinct =
  Testutil.qtest ~count:50 "atom-related pairs are pairs of distinct variables"
    (Testutil.gen_crpq ~max_atoms:2 ())
    (fun q ->
      List.for_all
        (fun e ->
          List.for_all
            (fun (x, y) ->
              x <> y
              && List.mem x (Cq.vars e.Expansion.cq)
              && List.mem y (Cq.vars e.Expansion.cq))
            e.Expansion.atom_related)
        (Expansion.expansions ~max_len:2 q))

let prop_merges_respect_constraints =
  Testutil.qtest ~count:30 "merges never collapse atom-related pairs"
    (Testutil.gen_crpq ~max_atoms:2 ~max_vars:2 ())
    (fun q ->
      List.for_all
        (fun e ->
          List.for_all
            (fun m ->
              List.for_all (fun (x, y) -> x <> y) m.Expansion.atom_related)
            (Expansion.merges e))
        (Expansion.expansions ~max_len:2 q))

(* The containment search's a-inj candidates are quotient graphs of the
   base expansions' graphs: the same merges as the named enumeration, in
   its order, with the same graphs and free tuples. *)
let prop_ainj_candidates =
  Testutil.qtest ~count:60 "a-inj candidates are the named a-inj expansions as graphs"
    QCheck2.Gen.(pair (int_bound 1_000_000) bool)
    (fun (seed, finite) ->
      let rng = Random.State.make [| 29; seed |] in
      let q =
        Qgen.random_crpq ~rng ~labels:[ "a"; "b" ] ~nvars:3
          ~natoms:(2 + (seed mod 2)) ~arity:(seed mod 3)
          ~cls:(if finite then Crpq.Class_fin else Crpq.Class_crpq)
          ()
      in
      let named, candidates =
        if finite && Crpq.is_finite q then
          (Expansion.finite_ainj_expansions q, Expansion.ainj_candidates q)
        else
          ( Expansion.ainj_expansions ~max_len:2 q,
            Expansion.ainj_candidates ~max_len:2 q )
      in
      let shape (g, tuple) = (Graph.nnodes g, Graph.edges g, tuple) in
      let same (e : Expansion.expanded) c =
        let e' = Expansion.candidate_expansion c in
        shape (Expansion.to_graph e) = shape (Expansion.candidate_graph c)
        && Cq.equal e.Expansion.cq e'.Expansion.cq
        && e.Expansion.profile = e'.Expansion.profile
        && e.Expansion.atom_related = e'.Expansion.atom_related
        && e.Expansion.atom_edges = e'.Expansion.atom_edges
      in
      List.length named = List.length candidates
      && List.for_all2 same named candidates
      || Alcotest.failf "%s: the candidates differ from the a-inj expansions"
           (Crpq.to_string q))

let () =
  Alcotest.run "expansion"
    [
      ( "unit",
        [
          Alcotest.test_case "example E1" `Quick test_example_e1;
          Alcotest.test_case "example E2" `Quick test_example_e2;
          Alcotest.test_case "membership check" `Quick test_expand_checks_membership;
          Alcotest.test_case "atom_related" `Quick test_atom_related;
          Alcotest.test_case "profiles count" `Quick test_profiles_count;
          Alcotest.test_case "finite expansions" `Quick test_finite_expansions;
          Alcotest.test_case "merges" `Quick test_merges_bell;
          Alcotest.test_case "merge specific" `Quick test_merge_specific;
          Alcotest.test_case "a-inj expansions" `Quick test_ainj_expansions;
          Alcotest.test_case "to_graph" `Quick test_to_graph;
        ] );
      ( "properties",
        [
          prop_expansion_words_match;
          prop_atom_related_distinct;
          prop_merges_respect_constraints;
          prop_ainj_candidates;
        ] );
    ]
