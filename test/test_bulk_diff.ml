(* Differential battery for the bulk bit-matrix RPQ engine.

   Two 200-instance suites, mirroring test_morphism_diff: for every
   random (graph, RPQ atom) the bulk multiple-source frontier BFS must
   produce the exact relation of the pointwise
   [Path_search.reach_relation] — under every cache / domain
   configuration — with the deduped [Path_oracle] as an
   independent third opinion; and full-query [Eval.eval] under all five
   semantics must return identical answer sets with the engine forced on
   versus off (only standard-semantics atom relations may take the bulk
   path, so the injective semantics pin down that nothing else moved). *)

type config = { cname : string; cached : bool; jobs : int }

let configs =
  [
    { cname = "uncached/seq"; cached = false; jobs = 1 };
    { cname = "cached/seq"; cached = true; jobs = 1 };
    { cname = "uncached/par2"; cached = false; jobs = 2 };
    { cname = "cached/par2"; cached = true; jobs = 2 };
  ]

let with_config c f =
  Cache.clear_all ();
  Cache.set_enabled c.cached;
  Parmap.set_default_jobs c.jobs;
  Fun.protect
    ~finally:(fun () ->
      Parmap.set_default_jobs 1;
      Cache.set_enabled true;
      Cache.clear_all ())
    f

let with_mode m f =
  let prev = Bulk_rpq.current_mode () in
  Bulk_rpq.set_mode m;
  Fun.protect ~finally:(fun () -> Bulk_rpq.set_mode prev) f

let with_sweep s f =
  let prev = Bulk_rpq.current_sweep () in
  Bulk_rpq.set_sweep s;
  Fun.protect ~finally:(fun () -> Bulk_rpq.set_sweep prev) f

let with_block b f =
  let prev = Bulk_rpq.current_block_rows () in
  Bulk_rpq.set_block_rows b;
  Fun.protect ~finally:(fun () -> Bulk_rpq.set_block_rows prev) f

let pp_rel rel =
  String.concat ";"
    (Array.to_list
       (Array.mapi
          (fun u row ->
            String.concat ""
              (Array.to_list (Array.map (fun b -> if b then "1" else "0") row))
            |> Printf.sprintf "%d:%s" u)
          rel))

(* ---------------- per-atom relations ------------------------------ *)

let gen_case =
  QCheck2.Gen.(
    pair (Testutil.gen_graph ~max_nodes:6 ()) (Testutil.gen_regex ~max_depth:2 ()))

let check_relation (g, r) =
  let nfa = Nfa.of_regex r in
  let want = Path_search.reach_relation g nfa in
  let oracle = Path_oracle.reach_relation g nfa in
  if oracle <> want then
    QCheck2.Test.fail_reportf
      "Path_search diverges from the deduped oracle on %s / %s@.oracle %s@.got    %s"
      (Testutil.print_graph g) (Testutil.print_regex r) (pp_rel oracle)
      (pp_rel want);
  List.for_all
    (fun c ->
      let got = with_config c (fun () -> Bulk_rpq.reach_relation g nfa) in
      if got = want then true
      else
        QCheck2.Test.fail_reportf
          "bulk diverges from Path_search under %s on %s / %s@.want %s@.got  %s"
          c.cname (Testutil.print_graph g) (Testutil.print_regex r)
          (pp_rel want) (pp_rel got))
    configs

let test_multi_source =
  Testutil.qtest ~count:200 "bulk multi-source BFS = Path_search relation"
    gen_case check_relation

(* ---------------- full-query Eval under all five semantics --------- *)

let gen_query_case =
  QCheck2.Gen.(
    let* g = Testutil.gen_graph ~max_nodes:4 () in
    let* arity = int_bound 2 in
    let* q = Testutil.gen_crpq ~max_atoms:2 ~max_vars:3 ~arity () in
    return (g, q))

let answers sem q g = Eval.eval sem q g

(* The On side runs twice: once under the engine's own kernel and tile
   choices, once with the sparse kernel and 2-row tiles forced, so every
   answer also crosses the sparse push and the tile seams. *)
let on_variants =
  [
    ("default kernels", fun f -> f ());
    ( "sparse/2-row tiles",
      fun f -> with_sweep Bulk_rpq.Sparse (fun () -> with_block (Some 2) f) );
  ]

let test_eval_all_semantics =
  Testutil.qtest ~count:200
    "Eval answers identical with the bulk engine on vs off (5 semantics)"
    gen_query_case (fun (g, q) ->
      List.for_all
        (fun sem ->
          let want = with_mode Bulk_rpq.Off (fun () -> answers sem q g) in
          List.for_all
            (fun c ->
              List.for_all
                (fun (vname, variant) ->
                  let got =
                    with_config c (fun () ->
                        with_mode Bulk_rpq.On (fun () ->
                            variant (fun () -> answers sem q g)))
                  in
                  if got = want then true
                  else
                    QCheck2.Test.fail_reportf
                      "Eval/%s with bulk on (%s) diverges under %s on %s / %s"
                      (Semantics.to_string sem) vname c.cname
                      (Testutil.print_graph g) (Crpq.to_string q))
                on_variants)
            configs)
        Semantics.all)

(* ---------------- St containment through the expansion checks ----- *)

(* The deciders' expansion checks ([Containment.defeats_all]) evaluate
   the right query with [Eval.check St], which is where the bulk engine
   meets containment.  Both directions of each biased pair run, so the
   battery sees contained verdicts and counterexample witnesses alike. *)
let gen_contain_seed = QCheck2.Gen.int_bound 0x3FFFFFF

let verdict_repr = function
  | Containment.Not_contained w ->
    Format.asprintf "not contained: %a at (%s)" Cq.pp
      w.Containment.expansion.Expansion.cq
      (String.concat "," (List.map string_of_int w.Containment.tuple))
  | v -> Format.asprintf "%a" Containment.pp_verdict v

let test_st_containment =
  Testutil.qtest ~count:100
    "St containment verdicts and witnesses identical with the bulk engine on vs off"
    gen_contain_seed (fun seed ->
      let rng = Random.State.make [| 0xB03; seed |] in
      let cls = if Random.State.bool rng then Crpq.Class_fin else Crpq.Class_crpq in
      let q1, q2 =
        Qgen.contained_pair ~rng ~labels:[ "a"; "b" ] ~nvars:3 ~natoms:2 ~cls ()
      in
      List.for_all
        (fun (l, r) ->
          let decide () =
            verdict_repr (Containment.decide ~bound:2 Semantics.St l r)
          in
          let want = with_mode Bulk_rpq.Off decide in
          let got = with_mode Bulk_rpq.On decide in
          if got = want then true
          else
            QCheck2.Test.fail_reportf "St %s vs %s@.bulk off: %s@.bulk on:  %s"
              (Crpq.to_string l) (Crpq.to_string r) want got)
        [ (q1, q2); (q2, q1) ])

(* -------- sweep kernels × tiling: one differential matrix ---------- *)

(* Every (forced sweep kernel, tile height) combination must reproduce
   the pointwise relation bit for bit — B=1 exercises every tile seam,
   a huge B the single-tile path, None the budget-derived default; the
   sparse/dense kernels cover both sides of the adaptive switch. *)
let sweep_tilings =
  [
    (Bulk_rpq.Sparse, Some 1);
    (Bulk_rpq.Sparse, Some 1024);
    (Bulk_rpq.Sparse, None);
    (Bulk_rpq.Dense, Some 1);
    (Bulk_rpq.Dense, Some 1024);
    (Bulk_rpq.Dense, None);
    (Bulk_rpq.Adaptive, Some 2);
    (Bulk_rpq.Adaptive, None);
  ]

let test_sweep_tiling_matrix =
  Testutil.qtest ~count:200
    "forced sweep kernels x tile heights all match Path_search" gen_case
    (fun (g, r) ->
      let nfa = Nfa.of_regex r in
      let want = Path_search.reach_relation g nfa in
      List.for_all
        (fun (sw, b) ->
          let got =
            with_sweep sw (fun () ->
                with_block b (fun () -> Bulk_rpq.reach_relation g nfa))
          in
          if got = want then true
          else
            QCheck2.Test.fail_reportf
              "sweep=%s block=%s diverges on %s / %s@.want %s@.got  %s"
              (Bulk_rpq.sweep_to_string sw)
              (match b with None -> "default" | Some n -> string_of_int n)
              (Testutil.print_graph g) (Testutil.print_regex r) (pp_rel want)
              (pp_rel got))
        sweep_tilings)

(* ---------------- tile seams: counter accounting ------------------- *)

let m_tiles = Obs.Metrics.counter "bulk.tiles"

let m_sweep_sparse = Obs.Metrics.counter "bulk.sweep_sparse"

let m_sweep_dense = Obs.Metrics.counter "bulk.sweep_dense"

let with_metrics f =
  Obs.Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.Metrics.set_enabled false) f

let test_tile_accounting () =
  let rng = Random.State.make [| 0xB03; 11 |] in
  let g = Generate.gnp ~rng ~nodes:60 ~labels:[ "a"; "b" ] ~p:0.04 in
  let nfa = Nfa.of_regex (Regex.parse "(a|b)*") in
  let srcs = Array.init 17 (fun i -> (i * 7) mod Graph.nnodes g) in
  let run b =
    with_metrics (fun () ->
        with_block b (fun () ->
            let t0 = Obs.Metrics.counter_value m_tiles in
            Bulk_rpq.reset_peak_tile_words ();
            let pairs = Bulk_rpq.reach_pairs g nfa srcs in
            (pairs, Obs.Metrics.counter_value m_tiles - t0)))
  in
  let pairs1, tiles1 = run (Some 1) in
  Alcotest.(check int) "B=1: one tile per source" (Array.length srcs) tiles1;
  let peak1 = Bulk_rpq.peak_tile_words () in
  let wpr = (Graph.nnodes g + Sys.int_size - 1) / Sys.int_size in
  Alcotest.(check bool) "B=1: peak tile memory is O(B*n)" true
    (peak1 <= 3 * nfa.Nfa.nstates * 1 * wpr);
  let pairs_all, tiles_all = run (Some 1024) in
  Alcotest.(check int) "B>=s: a single tile" 1 tiles_all;
  let pairs_def, tiles_def = run None in
  Alcotest.(check int) "default budget covers 17 sources in one tile" 1
    tiles_def;
  let rows m =
    List.init (Array.length srcs) (fun i ->
        let acc = ref [] in
        Bitmatrix.iter_row m i (fun v -> acc := v :: !acc);
        List.rev !acc)
  in
  Alcotest.(check bool) "B=1 rows = single-tile rows" true
    (rows pairs1 = rows pairs_all);
  Alcotest.(check bool) "default rows = single-tile rows" true
    (rows pairs_def = rows pairs_all)

let test_forced_sweep_counters () =
  let rng = Random.State.make [| 0xB04; 3 |] in
  let g = Generate.gnp ~rng ~nodes:48 ~labels:[ "a"; "b" ] ~p:0.05 in
  let nfa = Nfa.of_regex (Regex.parse "a(a|b)*") in
  let count sw =
    with_metrics (fun () ->
        with_sweep sw (fun () ->
            let sp0 = Obs.Metrics.counter_value m_sweep_sparse in
            let de0 = Obs.Metrics.counter_value m_sweep_dense in
            ignore (Bulk_rpq.reach_relation g nfa);
            ( Obs.Metrics.counter_value m_sweep_sparse - sp0,
              Obs.Metrics.counter_value m_sweep_dense - de0 )))
  in
  let sp, de = count Bulk_rpq.Sparse in
  Alcotest.(check bool) "forced sparse: sparse sweeps only" true
    (sp > 0 && de = 0);
  let sp, de = count Bulk_rpq.Dense in
  Alcotest.(check bool) "forced dense: dense sweeps only" true
    (de > 0 && sp = 0);
  let sp, de = count Bulk_rpq.Adaptive in
  Alcotest.(check bool) "adaptive: every sweep counted exactly once" true
    (sp >= 0 && de >= 0 && sp + de > 0)

(* ---------------- chaos on the sparse path ------------------------- *)

let test_sparse_chaos =
  Testutil.qtest ~count:100
    "chaos at bulk.sweep with the sparse kernel forced: trip or right"
    QCheck2.Gen.(pair gen_case (int_range 1 3))
    (fun ((g, r), visit) ->
      with_sweep Bulk_rpq.Sparse (fun () ->
          with_block (Some 2) (fun () ->
              let nfa = Nfa.of_regex r in
              let want = Path_search.reach_relation g nfa in
              Guard.Chaos.arm [ ("bulk.sweep", visit) ];
              let outcome =
                Guard.run (fun () -> Bulk_rpq.reach_relation g nfa)
              in
              let armed_ok =
                match outcome with
                | Ok rel -> rel = want
                | Error { site; reason = Guard.Fault_injected _ } ->
                  site = "bulk.sweep"
                | Error _ -> false
              in
              Guard.Chaos.arm [ ("bulk.sweep", visit) ];
              let supervised =
                Guard.supervise (fun () -> Bulk_rpq.reach_relation g nfa)
              in
              Guard.Chaos.disarm ();
              armed_ok && supervised = Ok want)))

(* ---------------- deterministic seams ------------------------------ *)

let test_auto_dispatch () =
  (* Auto keeps small graphs on the pointwise engine and switches past
     the crossover; On/Off force both ways regardless of size. *)
  let small = Graph.make ~nnodes:2 [ (0, "a", 1) ] in
  let nfa = Nfa.of_regex (Regex.parse "a*") in
  with_mode Bulk_rpq.Auto (fun () ->
      Alcotest.(check bool) "auto: tiny graph stays pointwise" false
        (Bulk_rpq.use_bulk small nfa));
  with_mode Bulk_rpq.On (fun () ->
      Alcotest.(check bool) "on: forced" true (Bulk_rpq.use_bulk small nfa));
  with_mode Bulk_rpq.Off (fun () ->
      Alcotest.(check bool) "off: forced" false (Bulk_rpq.use_bulk small nfa));
  let rng = Random.State.make [| 0xB01; 42 |] in
  let big = Generate.gnp ~rng ~nodes:256 ~labels:[ "a"; "b" ] ~p:0.02 in
  with_mode Bulk_rpq.Auto (fun () ->
      Alcotest.(check bool) "auto: past the crossover goes bulk" true
        (Bulk_rpq.use_bulk big nfa))

let test_block_validation () =
  Alcotest.check_raises "block 0 rejected"
    (Invalid_argument "Bulk_rpq.set_block_rows") (fun () ->
      Bulk_rpq.set_block_rows (Some 0));
  Alcotest.check_raises "negative block rejected"
    (Invalid_argument "Bulk_rpq.set_block_rows") (fun () ->
      Bulk_rpq.set_block_rows (Some (-3)));
  with_block (Some 7) (fun () ->
      Alcotest.(check int) "override wins whatever the shape" 7
        (Bulk_rpq.block_rows ~nstates:5 ~nnodes:1_000_000));
  (* default: deterministic in the problem dimensions, >= 1, and
     shrinking with the row width *)
  let b_small = Bulk_rpq.block_rows ~nstates:3 ~nnodes:1_000 in
  let b_large = Bulk_rpq.block_rows ~nstates:3 ~nnodes:1_000_000 in
  Alcotest.(check bool) "default block positive and monotone" true
    (b_small >= b_large && b_large >= 1)

let test_mid_graph_crossagreement () =
  (* One deterministic mid-size instance (past the auto crossover) where
     the engines agree cell for cell. *)
  let rng = Random.State.make [| 0xB02; 7 |] in
  let g = Generate.gnp ~rng ~nodes:40 ~labels:[ "a"; "b" ] ~p:0.04 in
  let nfa = Nfa.of_regex (Regex.parse "a(a|b)*b?") in
  let want = Path_search.reach_relation g nfa in
  Alcotest.(check bool) "multi-source agrees" true
    (Bulk_rpq.reach_relation g nfa = want)

let () =
  Alcotest.run "bulk_diff"
    [
      ("relations", [ test_multi_source ]);
      ("eval", [ test_eval_all_semantics ]);
      ("contain", [ test_st_containment ]);
      ("kernels", [ test_sweep_tiling_matrix; test_sparse_chaos ]);
      ( "tiling",
        [
          Alcotest.test_case "tile accounting" `Quick test_tile_accounting;
          Alcotest.test_case "forced sweep counters" `Quick
            test_forced_sweep_counters;
        ] );
      ( "seams",
        [
          Alcotest.test_case "auto dispatch" `Quick test_auto_dispatch;
          Alcotest.test_case "block validation" `Quick test_block_validation;
          Alcotest.test_case "mid-size agreement" `Quick
            test_mid_graph_crossagreement;
        ] );
    ]
