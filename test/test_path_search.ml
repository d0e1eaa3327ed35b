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

let prop_find_path_shortest =
  Testutil.qtest ~count:150 "found standard paths are shortest" gen_case
    (fun (g, r, src, dst) ->
      let nfa = Nfa.of_regex r in
      match Path_search.find_path g nfa ~src ~dst with
      | None -> true
      | Some p ->
        Path.src p = src && Path.tgt p = dst
        && Nfa.accepts nfa (Path.label p)
        && (Path.length p = 0
           || brute_exists g nfa ~src ~dst ~pred:(fun _ -> true)
                ~max_len:(Path.length p - 1)
              <> Some true))

(* One searcher answers every source in turn, each search clearing only
   what it visited: any state left over from the previous source would
   show as an extra node. *)
let prop_reachable_with_reuse =
  Testutil.qtest ~count:150 "reachable_with on one searcher = fresh reachable"
    QCheck2.Gen.(
      pair (Testutil.gen_graph ~max_nodes:5 ()) (Testutil.gen_regex ~max_depth:2 ()))
    (fun (g, r) ->
      let nfa = Nfa.of_regex r in
      let s = Path_search.simple_searcher g nfa in
      List.for_all
        (fun src ->
          let acc = ref [] in
          Path_search.reachable_with s ~src (fun v -> acc := v :: !acc);
          List.sort compare !acc = Path_search.reachable g nfa src)
        (Graph.nodes g))

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
              Bitmatrix.get reach u v = Path_search.exists_path g nfa ~src:u ~dst:v
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

(* [find_simple]'s witness for every (src, dst) pair, pinned on seeded
   random graphs: the search order (Graph.out's order, label then node
   descending) decides which witness comes first, and changes to the
   search must keep it.  A path renders as its source followed by
   label/node steps; "-" marks no accepted simple path.  Rows list the
   pairs in row-major (src, dst) order. *)
let render_path p =
  String.concat ""
    (string_of_int (Path.src p)
    :: List.map (fun (a, v) -> a ^ string_of_int v) p.Path.steps)

let witness_table g nfa =
  let n = Graph.nnodes g in
  String.concat " "
    (List.concat_map
       (fun u ->
         List.init n (fun v ->
             match Path_search.find_simple g nfa ~src:u ~dst:v with
             | None -> "-"
             | Some p -> render_path p))
       (List.init n Fun.id))

let pinned_witnesses =
  [
    ( 1,
      "(a|b)*",
      [
        "0 0b4a5b1 0b4a5b1a2 0b4a3 0b4 0b4a5 1b5b0 1 1b5a2 1b5b0b4a3";
        "1b5b0b4 1b5 2a5b0 2a5b1 2 2a5b0b4a3 2a5b0b4 2a5 3a4a5b0";
        "3a4a5b1 3a4a5b1a2 3 3a4 3a4a5 4a5b0 4a5b1 4a5b1a2 4a5b0b3 4";
        "4a5 5b0 5b1 5b1a2 5b1a2a4a3 5b1a2a4 5";
      ] );
    ( 1,
      "a(b|a)+",
      [
        "0a5b0 0a5b1 0a5b1a2 0a5b1a2a4a3 0a5b1a2a4 0a4a5 1a2a5b0";
        "1a2a5b1 - 1a2a5b0b4a3 1a2a5b0b4 1a2a5 2a5b0 2a5b1 2a5b1a2";
        "2a5b0b4a3 2a5b0b4 2a4a5 3a4a5b0 3a4a5b1 3a4a5b1a2 3a4a5b0b3";
        "- 3a4a5 4a5b0 4a5b1 4a5b1a2 4a5b0b3 4a5b1a2a4 - - - - 5a4a3";
        "5a2a4 5a4a5";
      ] );
    ( 1,
      "(ab)*|ba*",
      [
        "0 0a5b1 0b4a5a2 0b4a3 0b4 0b4a5 - 1 1b5a2 1b5a4a3 1b5a4 1b5";
        "2a5b0 2a5b1 2 - - - - - - 3 - - 4a5b0 4a5b1 - - 4 - 5b0 5b1";
        "5b1a2 5b1a2a4a3 5b1a2a4 5";
      ] );
    ( 2,
      "(a|b)*",
      [
        "0 0b2b1 0b2 0b3 0b2b4 0b2b1b5 1b5a0 1 1b5a0b2 1b5a0b3";
        "1b5a0b2b4 1b5 2b1b5a0 2b1 2 2b4b3 2b4 2b1b5 - - - 3 - - - -";
        "- 4b3 4 - 5a0 5a0b2b1 5a0b2 5a0b3 5a0b2b4 5";
      ] );
    ( 2,
      "a(b|a)+",
      [
        "- - - 0a4b3 - - 1a5a0 1a5a0b2b1 1a5a0b2 1a5a0b3 1a5a0b2b4";
        "1a0b2a5 2a5a0 2a5a0b1 2a5a0b2 2a5a0b3 2a5a0b1a4 - - - - - -";
        "- - - - - - - - 5a0b2b1 5a0b2 5a0b3 5a0b2b4 5a0b2b1b5";
      ] );
    ( 2,
      "(ab)*|ba*",
      [
        "0 0b1 0b2 0b3 0b1a4 0b2a5 1b5a0 1 1a0b2 1b5a0a4a3 1b5a0a4";
        "1b5 2b1a5a0 2b1 2 2b4a3 2b4 2b1a5 - - - 3 - - - - - 4b3 4 -";
        "- 5a0b1 5a0b2 5a0b3 - 5";
      ] );
    ( 3,
      "(a|b)*",
      [
        "0 0b5a4a1 0b5a4a1b3b2 0b5a4a1b3 0b5a4 0b5 1b3b2a0 1 1b3b2";
        "1b3 1b3b2a0b5a4 1b3b2a0b5 2a1b3b0 2a1 2 2a1b3 2a1b3b0b5a4";
        "2a1b3b0b5 3b2a1b0 3b2a1 3b2 3 3b2a1b0b5a4 3b2a1b0b5";
        "4a5a2a1b3b0 4a5a2a1 4a5a2 4a5a2a1b3 4 4a5 5a4a1b3b2a0 5a4a1";
        "5a4a1b3b2 5a4a1b3 5a4 5";
      ] );
    ( 3,
      "a(b|a)+",
      [
        "0a4a5a2a1b3b0 0a4a5a2a1 0a4a5a2 0a4a5a2a1b3 0a2a1a5a4 0a4a5";
        "1a5a2a0 1a5a4a1 1a5a2 - 1a5a4 - 2a1b3b0 2a0b5a4a1 2a1b3b2";
        "2a1b3 2a1b3b0b5a4 2a1b3b0b5 3a2a1b0 3a2a1 - 3a2a1b3";
        "3a2a1b0b5a4 3a2a1b0b5 4a5a2a1b3b0 4a5a2a1 4a5a2 4a5a2a1b3";
        "4a5a4 4a1b3b2a0b5 5a4a1b3b2a0 5a4a1 5a4a1b3b2 5a4a1b3";
        "5a2a1b3b0a4 5a4a5";
      ] );
    ( 3,
      "(ab)*|ba*",
      [
        "0 0b5a4a1 0b5a2 - 0b5a4 0b5 1b3a2a0 1 1b3a2 1b3 1b3a2a0a4";
        "1b3a2a0a4a5 2a1b0 2a0b1 2 2a1b3 - 2a0b5 3b2a0 3b2a1 3b2 3";
        "3b2a1a5a4 3b2a1a5 4a1b0 - - 4a1b3 4 - - - - - - 5";
      ] );
  ]

let test_witness_pins () =
  List.iter
    (fun (seed, re, rows) ->
      let g =
        Generate.gnp ~rng:(Random.State.make [| seed |]) ~nodes:6
          ~labels:[ "a"; "b" ] ~p:0.25
      in
      Alcotest.(check string)
        (Printf.sprintf "seed %d, %s" seed re)
        (String.concat " " rows)
        (witness_table g (Nfa.of_regex (Regex.parse re))))
    pinned_witnesses

(* [iter_simple]'s enumeration order, pinned the same way: Eval's
   query-injective join threads paths in this order. *)
let test_enumeration_pin () =
  let g =
    Generate.gnp ~rng:(Random.State.make [| 3 |]) ~nodes:6 ~labels:[ "a"; "b" ]
      ~p:0.25
  in
  let nfa = Nfa.of_regex (Regex.parse "(a|b)*") in
  let expect src dst rows =
    Alcotest.(check (list string))
      (Printf.sprintf "%d -> %d" src dst)
      (String.split_on_char ' ' (String.concat " " rows))
      (List.map render_path (Path_search.all_simple g nfa ~src ~dst))
  in
  expect 0 3 [ "0b5a4a1b3 0b5a2a1b3 0b1b3 0a4a5a2a1b3 0a4a1b3 0a2a1b3" ];
  expect 2 2
    [
      "2 2a1b3b2 2a1b3b0b5a2 2a1b3b0a4a5a2 2a1b3b0a2 2a1b3a2 2a1b0b5a2";
      "2a1b0a4a5a2 2a1b0a2 2a1a5a2 2a0b5a4a1b3b2 2a0b5a4a1b3a2 2a0b5a2";
      "2a0b1b3b2 2a0b1b3a2 2a0b1a5a2 2a0a4a5a2 2a0a4a1b3b2 2a0a4a1b3a2";
      "2a0a4a1a5a2 2a0a2";
    ]

(* [iter_trail]'s enumeration order on the same graph, pinned the same
   way for words of length 1 to 5: unlike a simple path, a trail may
   repeat nodes (0a4a1b0b1b3), take a self-loop (5b5) and pass through
   its target (2a0a2a1b3b2).  The counts pin the unbounded language. *)
let test_trail_pin () =
  let g =
    Generate.gnp ~rng:(Random.State.make [| 3 |]) ~nodes:6 ~labels:[ "a"; "b" ]
      ~p:0.25
  in
  let trails re src dst =
    let acc = ref [] in
    Path_search.iter_trail g (Nfa.of_regex (Regex.parse re)) ~src ~dst (fun p ->
        acc := render_path p :: !acc);
    List.rev !acc
  in
  let expect src dst rows =
    Alcotest.(check (list string))
      (Printf.sprintf "%d -> %d" src dst)
      (String.split_on_char ' ' (String.concat " " rows))
      (trails "(a|b)(a|b)?(a|b)?(a|b)?(a|b)?" src dst)
  in
  expect 0 3
    [
      "0b5b5a4a1b3 0b5b5a2a1b3 0b5a4a1b3 0b5a2a1b3 0b5a2a0b1b3 0b1b3";
      "0b1b0a4a1b3 0b1b0a2a1b3 0b1a5a4a1b3 0b1a5a2a1b3 0a4a5a4a1b3";
      "0a4a5a2a1b3 0a4a1b3 0a4a1b0b1b3 0a2a1b3 0a2a1b0b1b3 0a2a0b1b3";
      "0a2a0a4a1b3";
    ];
  expect 2 2
    [
      "2a1b3b2 2a1b3b2a0a2 2a1b3b0b5a2 2a1b3b0a2 2a1b3a2 2a1b3a2a0a2";
      "2a1b0b5b5a2 2a1b0b5a2 2a1b0b1b3b2 2a1b0b1b3a2 2a1b0b1a5a2";
      "2a1b0a4a5a2 2a1b0a2 2a1a5b5a2 2a1a5a4a5a2 2a1a5a2 2a1a5a2a0a2";
      "2a0b5b5a2 2a0b5a4a5a2 2a0b5a2 2a0b1b3b2 2a0b1b3b0a2 2a0b1b3a2";
      "2a0b1b0b5a2 2a0b1b0a2 2a0b1a5b5a2 2a0b1a5a2 2a0a4a5b5a2 2a0a4a5a2";
      "2a0a4a1b3b2 2a0a4a1b3a2 2a0a4a1b0a2 2a0a4a1a5a2 2a0a2 2a0a2a1b3b2";
      "2a0a2a1b3a2 2a0a2a1a5a2";
    ];
  Alcotest.(check (pair int int))
    "(a|b)* trails 0 -> 3, 2 -> 2" (826, 2702)
    (List.length (trails "(a|b)*" 0 3), List.length (trails "(a|b)*" 2 2))

(* The relation shares one searcher over all n² pairs: its
   co-reachability work is one backward product BFS per destination, at
   most n·m product states each. *)
let m_product_states = Obs.Metrics.counter "path_search.product_states"

let test_relation_work_bound () =
  let was = Obs.Metrics.enabled () in
  Obs.Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.Metrics.set_enabled was) (fun () ->
      List.iter
        (fun (name, g, re) ->
          let nfa = Nfa.of_regex (Regex.parse re) in
          let n = Graph.nnodes g and m = nfa.Nfa.nstates in
          let before = Obs.Metrics.counter_value m_product_states in
          ignore (Path_search.simple_reach_relation g nfa);
          let states = Obs.Metrics.counter_value m_product_states - before in
          if states > n * n * m then
            Alcotest.failf "%s, %s: %d product states > n·(n·m) = %d" name re states
              (n * n * m))
        [
          ("clique 6", Generate.clique ~nodes:6 ~label:"a", "a*");
          ("clique 6", Generate.clique ~nodes:6 ~label:"a", "(aa)+");
          ( "gnp seed 3",
            Generate.gnp ~rng:(Random.State.make [| 3 |]) ~nodes:6
              ~labels:[ "a"; "b" ] ~p:0.25,
            "(a|b)*" );
        ])

(* The searcher's scratch state survives every way a search can end: a
   witness ([Found]), an exception from the callback, and a guard trip
   (chaos at [path_search.simple]).  After each, the same searcher must
   answer the next search as a fresh one does. *)
let test_searcher_reuse () =
  let g =
    Generate.gnp ~rng:(Random.State.make [| 3 |]) ~nodes:6 ~labels:[ "a"; "b" ]
      ~p:0.25
  in
  let nfa = Nfa.of_regex (Regex.parse "(a|b)*") in
  let s = Path_search.simple_searcher g nfa in
  let all_with src dst =
    let acc = ref [] in
    Path_search.iter_simple_with s ~src ~dst (fun p -> acc := render_path p :: !acc);
    List.rev !acc
  in
  let fresh src dst = List.map render_path (Path_search.all_simple g nfa ~src ~dst) in
  let same what src dst =
    Alcotest.(check (list string))
      (Printf.sprintf "%s, then %d -> %d" what src dst)
      (fresh src dst) (all_with src dst)
  in
  (* every pair through the shared searcher: each find stops on Found *)
  for u = 0 to 5 do
    for v = 0 to 5 do
      Alcotest.(check (option string))
        (Printf.sprintf "find %d -> %d" u v)
        (Option.map render_path (Path_search.find_simple g nfa ~src:u ~dst:v))
        (Option.map render_path (Path_search.find_simple_with s ~src:u ~dst:v))
    done
  done;
  same "finds" 2 2;
  (try
     Path_search.iter_simple_with s ~src:2 ~dst:2 (fun p ->
         if Path.length p > 3 then raise Exit)
   with Exit -> ());
  same "a callback exception" 0 3;
  Guard.Chaos.arm [ ("path_search.simple", 4) ];
  let tripped =
    Fun.protect ~finally:Guard.Chaos.disarm (fun () ->
        Guard.run (fun () -> all_with 2 2))
  in
  Alcotest.(check bool) "chaos tripped the search" true (Result.is_error tripped);
  same "a chaos trip" 2 2;
  Alcotest.check_raises "nested search"
    (Invalid_argument "Path_search: nested search on one searcher") (fun () ->
      Path_search.iter_simple_with s ~src:2 ~dst:2 (fun p ->
          if Path.length p > 0 then ignore (all_with 0 3)));
  same "a nested search" 0 3

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
          Alcotest.test_case "find_simple witness pins" `Quick test_witness_pins;
          Alcotest.test_case "iter_simple order pin" `Quick test_enumeration_pin;
          Alcotest.test_case "iter_trail order pin" `Quick test_trail_pin;
          Alcotest.test_case "relation work bound" `Quick test_relation_work_bound;
          Alcotest.test_case "searcher reuse" `Quick test_searcher_reuse;
        ] );
      ( "properties",
        [
          prop_reachable;
          prop_simple;
          prop_trail;
          prop_find_simple_valid;
          prop_find_path_valid;
          prop_find_path_shortest;
          prop_reachable_with_reuse;
          prop_relations_agree;
        ] );
    ]
