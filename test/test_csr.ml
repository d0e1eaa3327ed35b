(* CSR adjacency conformance: the per-label compressed-sparse-row
   arrays must be exactly the interned successor/predecessor indexes of
   the graph — same runs, same order, edge counts summing to
   [Graph.nedges] per direction — and the memoized [of_graph] must hand
   back one shared structure per graph uid. *)

let gen_graph = Testutil.gen_graph ~max_nodes:8 ()

let check_direction g dir csr neighbours =
  let n = Graph.nnodes g in
  List.for_all
    (fun ai ->
      let c = csr.(ai) in
      Alcotest.(check int) "nnodes" n (Csr.nnodes c) |> ignore;
      List.for_all
        (fun u ->
          let want = Array.to_list (neighbours g u ai) in
          let via_iter =
            let acc = ref [] in
            Csr.iter_succ c u (fun v -> acc := v :: !acc);
            List.rev !acc
          in
          let via_fold =
            List.rev (Csr.fold_succ c u (fun acc v -> v :: acc) [])
          in
          let via_run =
            List.init (Csr.degree c u) (fun k ->
                (Csr.cols c).(Csr.start c u + k))
          in
          if via_iter = want && via_fold = want && via_run = want then true
          else
            QCheck2.Test.fail_reportf
              "csr %s label %d node %d: want [%s] iter [%s] run [%s] on %s" dir
              ai u
              (String.concat ";" (List.map string_of_int want))
              (String.concat ";" (List.map string_of_int via_iter))
              (String.concat ";" (List.map string_of_int via_run))
              (Testutil.print_graph g))
        (Graph.nodes g))
    (List.init (Graph.nlabels g) Fun.id)

let test_csr_matches_graph =
  Testutil.qtest ~count:300 "CSR runs = Graph succ_ids/pred_ids" gen_graph
    (fun g ->
      let csr = Csr.build g in
      check_direction g "fwd" csr.Csr.fwd (fun g u ai -> Graph.succ_ids g u ai)
      && check_direction g "rev" csr.Csr.rev (fun g u ai ->
             Graph.pred_ids g u ai))

let test_nnz_sums =
  Testutil.qtest ~count:300 "CSR nnz sums to nedges in both directions"
    gen_graph (fun g ->
      let csr = Csr.build g in
      let total dir =
        Array.fold_left (fun acc c -> acc + Csr.nnz c) 0 dir
      in
      total csr.Csr.fwd = Graph.nedges g && total csr.Csr.rev = Graph.nedges g)

(* The identity below holds only through [Cache.Memo], which the
   INJCRPQ_CHAOS leg bypasses: disarm chaos for the test's duration and
   re-arm it after. *)
let with_memo_on f =
  Guard.Chaos.disarm ();
  Fun.protect f ~finally:(fun () ->
      match Sys.getenv_opt "INJCRPQ_CHAOS" with
      | Some spec -> ignore (Guard.Chaos.arm_spec spec)
      | None -> ())

let test_memoized_identity () =
  with_memo_on @@ fun () ->
  let g = Graph.make ~nnodes:4 [ (0, "a", 1); (1, "b", 2); (2, "a", 3) ] in
  let c1 = Csr.of_graph g and c2 = Csr.of_graph g in
  Alcotest.(check bool) "same graph, same memoized structure" true (c1 == c2);
  let g' = Graph.make ~nnodes:4 [ (0, "a", 1); (1, "b", 2); (2, "a", 3) ] in
  let c3 = Csr.of_graph g' in
  Alcotest.(check bool) "distinct uid, distinct structure" true (c1 != c3);
  (* degrees on the fixture: node 1 has one a-successor? no — "a" is
     label id 0, "b" id 1 (sorted interning) *)
  Alcotest.(check int) "deg fwd a of 0" 1 (Csr.degree c1.Csr.fwd.(0) 0);
  Alcotest.(check int) "deg fwd b of 1" 1 (Csr.degree c1.Csr.fwd.(1) 1);
  Alcotest.(check int) "deg rev a of 3" 1 (Csr.degree c1.Csr.rev.(0) 3);
  Alcotest.(check int) "deg fwd a of 1" 0 (Csr.degree c1.Csr.fwd.(0) 1)

let test_empty_and_edgeless () =
  let empty = Csr.build Graph.empty in
  Alcotest.(check int) "empty graph: no label structures" 0
    (Array.length empty.Csr.fwd);
  let edgeless = Graph.make ~nnodes:5 [] in
  let c = Csr.build edgeless in
  Alcotest.(check int) "edgeless: no labels interned" 0
    (Array.length c.Csr.fwd)

let () =
  Alcotest.run "csr"
    [
      ("conformance", [ test_csr_matches_graph; test_nnz_sums ]);
      ( "seams",
        [
          Alcotest.test_case "memoized identity" `Quick test_memoized_identity;
          Alcotest.test_case "empty graphs" `Quick test_empty_and_edgeless;
        ] );
    ]
