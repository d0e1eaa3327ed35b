(* Brute-force oracles live in [Path_oracle] (shared with the bulk
   engine's differential battery): a budgeted depth-first path
   enumerator for the path-predicate semantics, and a deduped
   product-pair oracle for standard reachability that never abstains. *)

let brute_exists = Path_oracle.brute_exists

let gen_case =
  QCheck2.Gen.(
    let* g = Testutil.gen_graph ~max_nodes:4 () in
    let* r = Testutil.gen_regex ~max_depth:2 () in
    let* src = int_bound (Graph.nnodes g - 1) in
    let* dst = int_bound (Graph.nnodes g - 1) in
    return (g, r, src, dst))

let prop_reachable =
  Testutil.qtest ~count:150
    "standard reachability agrees with the deduped product oracle" gen_case
    (fun (g, r, src, dst) ->
      let nfa = Nfa.of_regex r in
      Path_search.exists_path g nfa ~src ~dst
      = Path_oracle.reach_exists g nfa ~src ~dst)

let prop_simple =
  Testutil.qtest ~count:150 "simple-path search agrees with brute force" gen_case
    (fun (g, r, src, dst) ->
      let nfa = Nfa.of_regex r in
      let direct = Path_search.exists_simple g nfa ~src ~dst in
      let pred p = if src = dst then Path.is_simple_cycle p else Path.is_simple p in
      match brute_exists g nfa ~src ~dst ~pred ~max_len:(Graph.nnodes g) with
      | None -> true
      | Some brute -> direct = brute)

let prop_trail =
  Testutil.qtest ~count:100 "trail search agrees with brute force" gen_case
    (fun (g, r, src, dst) ->
      let nfa = Nfa.of_regex r in
      let direct = Path_search.exists_trail g nfa ~src ~dst in
      match
        brute_exists g nfa ~src ~dst ~pred:Path.is_trail
          ~max_len:(Graph.nedges g)
      with
      | None -> true
      | Some brute -> direct = brute)

let prop_find_simple_valid =
  Testutil.qtest ~count:150 "found simple paths are valid witnesses" gen_case
    (fun (g, r, src, dst) ->
      let nfa = Nfa.of_regex r in
      match Path_search.find_simple g nfa ~src ~dst with
      | None -> true
      | Some p ->
        Path.valid_in g p && Path.src p = src && Path.tgt p = dst
        && Nfa.accepts nfa (Path.label p)
        && (if src = dst then Path.is_simple_cycle p else Path.is_simple p))

let prop_find_path_valid =
  Testutil.qtest ~count:150 "found standard paths are valid witnesses" gen_case
    (fun (g, r, src, dst) ->
      let nfa = Nfa.of_regex r in
      match Path_search.find_path g nfa ~src ~dst with
      | None -> not (Path_search.exists_path g nfa ~src ~dst)
      | Some p ->
        Path.valid_in g p && Path.src p = src && Path.tgt p = dst
        && Nfa.accepts nfa (Path.label p))

let prop_relations_agree =
  Testutil.qtest ~count:60 "relation matrices agree with point queries"
    QCheck2.Gen.(
      pair (Testutil.gen_graph ~max_nodes:4 ()) (Testutil.gen_regex ~max_depth:2 ()))
    (fun (g, r) ->
      let nfa = Nfa.of_regex r in
      let reach = Path_search.reach_relation g nfa in
      let simple = Path_search.simple_reach_relation g nfa in
      List.for_all
        (fun u ->
          List.for_all
            (fun v ->
              reach.(u).(v) = Path_search.exists_path g nfa ~src:u ~dst:v
              && simple.(u).(v) = Path_search.exists_simple g nfa ~src:u ~dst:v)
            (Graph.nodes g))
        (Graph.nodes g))

(* deterministic scenarios *)

let test_lollipop () =
  (* the only a^5-path from the handle start revisits the cycle *)
  let g = Generate.lollipop ~handle:2 ~cycle_len:3 ~label:"a" in
  let nfa_exact n = Nfa.of_regex (Regex.word (List.init n (fun _ -> "a"))) in
  (* standard: arbitrarily long words fine (cycle length 3) *)
  Alcotest.check Alcotest.bool "standard a^9 exists" true
    (Path_search.exists_path g (nfa_exact 9) ~src:0 ~dst:3);
  (* simple: longest simple path has length nnodes-1 = 4 *)
  Alcotest.check Alcotest.bool "no simple a^9" false
    (Path_search.exists_simple g (nfa_exact 9) ~src:0 ~dst:3);
  Alcotest.check Alcotest.bool "simple a^3 exists" true
    (Path_search.exists_simple g (nfa_exact 3) ~src:0 ~dst:3)

let test_simple_cycle_semantics () =
  let g = Generate.cycle (Word.of_string "ab") in
  let nfa = Nfa.of_regex (Regex.parse "ab") in
  Alcotest.check Alcotest.bool "cycle at 0" true
    (Path_search.exists_simple g nfa ~src:0 ~dst:0);
  let eps_nfa = Nfa.of_regex (Regex.parse "%|ab") in
  Alcotest.check Alcotest.bool "empty path counts with eps" true
    (Path_search.exists_simple g eps_nfa ~src:0 ~dst:0)

let test_avoid_internal () =
  (* two internally-disjoint ab-paths 0->3; block one internal node *)
  let g =
    Graph.make ~nnodes:4 [ (0, "a", 1); (1, "b", 3); (0, "a", 2); (2, "b", 3) ]
  in
  let nfa = Nfa.of_regex (Regex.parse "ab") in
  Alcotest.check Alcotest.bool "exists initially" true
    (Path_search.exists_simple g nfa ~src:0 ~dst:3);
  Alcotest.check Alcotest.bool "exists avoiding node 1" true
    (Path_search.exists_simple ~avoid_internal:(fun v -> v = 1) g nfa ~src:0 ~dst:3);
  Alcotest.check Alcotest.bool "blocked avoiding both" false
    (Path_search.exists_simple
       ~avoid_internal:(fun v -> v = 1 || v = 2)
       g nfa ~src:0 ~dst:3)

let test_trail_vs_simple () =
  (* figure-eight: trail exists but simple path does not *)
  let g =
    Graph.make ~nnodes:4
      [ (0, "a", 1); (1, "a", 2); (2, "a", 1); (1, "a", 3) ]
  in
  let n4 = Nfa.of_regex (Regex.parse "aaaa") in
  Alcotest.check Alcotest.bool "trail aaaa" true
    (Path_search.exists_trail g n4 ~src:0 ~dst:3);
  Alcotest.check Alcotest.bool "no simple aaaa" false
    (Path_search.exists_simple g n4 ~src:0 ~dst:3)

let test_all_simple () =
  let g =
    Graph.make ~nnodes:4 [ (0, "a", 1); (1, "b", 3); (0, "a", 2); (2, "b", 3) ]
  in
  let nfa = Nfa.of_regex (Regex.parse "ab") in
  Alcotest.check Alcotest.int "two witnesses" 2
    (List.length (Path_search.all_simple g nfa ~src:0 ~dst:3))

let test_source_outside_graph () =
  (* a source that is not a node answers "no path" on every regime, the
     standard-semantics helpers included *)
  let g = Graph.make ~nnodes:3 [ (0, "a", 1); (1, "b", 2) ] in
  let lang = Regex.parse "ab" in
  let nfa = Nfa.of_regex lang in
  let q = Crpq.make ~free:[ "x"; "y" ] [ Crpq.atom "x" lang "y" ] in
  List.iter
    (fun src ->
      let name what = Printf.sprintf "%s from %d" what src in
      Alcotest.(check (list int)) (name "reachable") []
        (Path_search.reachable g nfa src);
      Alcotest.(check bool) (name "exists_path") false
        (Path_search.exists_path g nfa ~src ~dst:2);
      Alcotest.(check bool) (name "find_path") true
        (Path_search.find_path g nfa ~src ~dst:2 = None);
      Alcotest.(check bool) (name "exists_simple") false
        (Path_search.exists_simple g nfa ~src ~dst:2);
      Alcotest.(check bool) (name "exists_trail") false
        (Path_search.exists_trail g nfa ~src ~dst:2);
      Alcotest.(check bool) (name "Rpq.check_standard") false
        (Rpq.check_standard lang g src 2);
      Alcotest.(check bool) (name "Rpq.check_simple_path") false
        (Rpq.check_simple_path lang g src 2);
      Alcotest.(check bool) (name "Rpq.check_trail") false
        (Rpq.check_trail lang g src 2);
      List.iter
        (fun sem ->
          Alcotest.(check bool)
            (name ("Eval.check " ^ Semantics.to_string sem))
            false
            (Eval.check sem q g [ src; 2 ]))
        Semantics.all)
    [ 7; -1 ]

let () =
  Alcotest.run "path_search"
    [
      ( "unit",
        [
          Alcotest.test_case "lollipop" `Quick test_lollipop;
          Alcotest.test_case "simple cycles" `Quick test_simple_cycle_semantics;
          Alcotest.test_case "avoid_internal" `Quick test_avoid_internal;
          Alcotest.test_case "trail vs simple" `Quick test_trail_vs_simple;
          Alcotest.test_case "all_simple" `Quick test_all_simple;
          Alcotest.test_case "source outside the graph" `Quick
            test_source_outside_graph;
        ] );
      ( "properties",
        [
          prop_reachable;
          prop_simple;
          prop_trail;
          prop_find_simple_valid;
          prop_find_path_valid;
          prop_relations_agree;
        ] );
    ]
