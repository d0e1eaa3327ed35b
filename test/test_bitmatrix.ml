(* Kernel-layer properties for the bulk engine: Bitmatrix row ops
   against a naive bool-array model, frontier BFS rows against
   Path_search.reachable, and chaos at the bulk.sweep site (structured
   trips, never a wrong relation). *)

let gen_dims =
  (* Column counts straddle the 63-bit word boundaries on purpose. *)
  QCheck2.Gen.(pair (int_range 1 6) (int_range 1 140))

let gen_bits rows cols =
  QCheck2.Gen.(
    list_size (int_bound (2 * rows * min cols 40))
      (pair (int_bound (rows - 1)) (int_bound (cols - 1))))

let gen_matrix =
  QCheck2.Gen.(
    let* rows, cols = gen_dims in
    let* bits = gen_bits rows cols in
    return (rows, cols, bits))

let build rows cols bits =
  let m = Bitmatrix.create ~rows ~cols in
  let model = Array.make_matrix rows cols false in
  List.iter
    (fun (i, j) ->
      Bitmatrix.set m i j;
      model.(i).(j) <- true)
    bits;
  (m, model)

let model_row_pop model i = Array.fold_left (fun n b -> if b then n + 1 else n) 0 model.(i)

let agree m model =
  let rows = Bitmatrix.rows m and cols = Bitmatrix.cols m in
  let ok = ref true in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      if Bitmatrix.get m i j <> model.(i).(j) then ok := false
    done
  done;
  !ok

let prop_row_ops =
  Testutil.qtest ~count:200 "row ops agree with the bool-array model" gen_matrix
    (fun (rows, cols, bits) ->
      let m, model = build rows cols bits in
      (* point queries, popcounts *)
      agree m model
      && Bitmatrix.popcount m
         = List.fold_left (fun n i -> n + model_row_pop model i) 0
             (List.init rows Fun.id)
      && List.for_all
           (fun i ->
             Bitmatrix.row_popcount m i = model_row_pop model i
             && Bitmatrix.is_row_empty m i = (model_row_pop model i = 0))
           (List.init rows Fun.id)
      (* iter_row: ascending set columns *)
      && List.for_all
           (fun i ->
             let got = ref [] in
             Bitmatrix.iter_row m i (fun j -> got := j :: !got);
             let got = List.rev !got in
             let want =
               List.filter (fun j -> model.(i).(j)) (List.init cols Fun.id)
             in
             got = want)
           (List.init rows Fun.id)
      (* clear undoes set *)
      && (match bits with
         | [] -> true
         | (i, j) :: _ ->
           Bitmatrix.clear m i j;
           let r = not (Bitmatrix.get m i j) in
           Bitmatrix.set m i j;
           r)
      (* structural equality *)
      && Bitmatrix.equal (Bitmatrix.copy m) m)

let gen_two_matrices =
  QCheck2.Gen.(
    let* rows, cols = gen_dims in
    let* bits1 = gen_bits rows cols in
    let* bits2 = gen_bits rows cols in
    let* i = int_bound (rows - 1) in
    let* j = int_bound (rows - 1) in
    return (rows, cols, bits1, bits2, i, j))

let prop_row_kernels =
  Testutil.qtest ~count:200 "or/diff row kernels agree with the model"
    gen_two_matrices (fun (rows, cols, bits1, bits2, i, j) ->
      let src, msrc = build rows cols bits1 in
      (* OR: dst_j <- dst_j lor src_i *)
      let dst, mdst = build rows cols bits2 in
      let expect_change = ref false in
      for c = 0 to cols - 1 do
        if msrc.(i).(c) && not mdst.(j).(c) then expect_change := true;
        mdst.(j).(c) <- mdst.(j).(c) || msrc.(i).(c)
      done;
      let changed = Bitmatrix.or_row_into ~src i ~dst j in
      let or_ok = changed = !expect_change && agree dst mdst in
      (* DIFF: dst_j <- dst_j land lnot mask_i *)
      let dst2, mdst2 = build rows cols bits2 in
      let expect_change2 = ref false in
      for c = 0 to cols - 1 do
        if msrc.(i).(c) && mdst2.(j).(c) then expect_change2 := true;
        mdst2.(j).(c) <- mdst2.(j).(c) && not msrc.(i).(c)
      done;
      let changed2 = Bitmatrix.diff_row_into ~mask:src i ~dst:dst2 j in
      or_ok && changed2 = !expect_change2 && agree dst2 mdst2)

(* ---------------- frontier BFS vs Path_search -------------------- *)

let gen_case =
  QCheck2.Gen.(
    let* g = Testutil.gen_graph ~max_nodes:4 () in
    let* r = Testutil.gen_regex ~max_depth:2 () in
    return (g, r))

let prop_reach_pairs =
  Testutil.qtest ~count:150
    "multi-source frontier BFS rows equal Path_search.reachable" gen_case
    (fun (g, r) ->
      let nfa = Nfa.of_regex r in
      let n = Graph.nnodes g in
      let srcs = Array.init n Fun.id in
      let seen = Bulk_rpq.reach_pairs g nfa srcs in
      List.for_all
        (fun u ->
          let want = List.sort_uniq compare (Path_search.reachable g nfa u) in
          let got = ref [] in
          Bitmatrix.iter_row seen u (fun v -> got := v :: !got);
          List.rev !got = want)
        (Graph.nodes g))

(* ---------------- chaos at bulk.sweep ----------------------------- *)

let gen_chaos_case =
  QCheck2.Gen.(
    let* g, r = gen_case in
    let* visit = int_range 1 3 in
    return (g, r, visit))

let prop_chaos =
  Testutil.qtest ~count:100
    "chaos on bulk.sweep: structured trip or correct relation, never wrong"
    gen_chaos_case (fun (g, r, visit) ->
      let nfa = Nfa.of_regex r in
      let want = Path_search.reach_relation g nfa in
      Guard.Chaos.arm [ ("bulk.sweep", visit) ];
      let outcome =
        Guard.run (fun () -> Bulk_rpq.reach_relation g nfa)
      in
      let armed_ok =
        match outcome with
        | Ok rel ->
          (* fewer than [visit] sweeps: the rule never fired, the result
             must still be right *)
          rel = want
        | Error { site; reason = Guard.Fault_injected _ } -> site = "bulk.sweep"
        | Error _ -> false
      in
      (* supervise retries the injected trip and recovers the answer *)
      Guard.Chaos.arm [ ("bulk.sweep", visit) ];
      let supervised =
        Guard.supervise (fun () -> Bulk_rpq.reach_relation g nfa)
      in
      Guard.Chaos.disarm ();
      let clean = Bulk_rpq.reach_relation g nfa in
      armed_ok && supervised = Ok want && clean = want)

let () =
  Alcotest.run "bitmatrix"
    [
      ("kernels", [ prop_row_ops; prop_row_kernels ]);
      ("product", [ prop_reach_pairs ]);
      ("chaos", [ prop_chaos ]);
    ]
