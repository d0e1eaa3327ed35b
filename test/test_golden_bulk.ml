(* Golden conformance for the bulk bit-matrix engine: pins the E16
   cells' relation sizes and bulk.* counter deltas (fixed seeds, one
   domain) plus the paper's Example 2.1 answer sets with the
   engine forced on.  Any change to the kernels' work accounting, the
   sweep schedule or — worse — the relations themselves shows up as a
   readable fixture diff.

   Counter deltas count 63-bit words (Sys.int_size on a 64-bit build),
   which the fixture assumes; the word counts would legitimately differ
   on a 32-bit build.

   Regenerate after an intentional change with

     INJCRPQ_GOLDEN_REGEN=$PWD/test/golden/bulk_e16.golden \
       dune exec test/test_golden_bulk.exe *)

let fixture = "golden/bulk_e16.golden"

let m_sweeps = Obs.Metrics.counter "bulk.sweeps"

let m_frontier = Obs.Metrics.counter "bulk.frontier_bits"

let m_words = Obs.Metrics.counter "bulk.words_anded"

let m_sparse = Obs.Metrics.counter "bulk.sweep_sparse"

let m_dense = Obs.Metrics.counter "bulk.sweep_dense"

let m_tiles = Obs.Metrics.counter "bulk.tiles"

let with_mode m f =
  let prev = Bulk_rpq.current_mode () in
  Bulk_rpq.set_mode m;
  Fun.protect ~finally:(fun () -> Bulk_rpq.set_mode prev) f

let rel_pairs rel =
  Array.fold_left
    (fun acc row -> Array.fold_left (fun a b -> if b then a + 1 else a) acc row)
    0 rel

let render () =
  let buf = Buffer.create 2048 in
  let line fmt =
    Printf.ksprintf
      (fun s ->
        Buffer.add_string buf s;
        Buffer.add_char buf '\n')
      fmt
  in
  line "# Pinned E16 bulk-engine work accounting (fixed seeds, 1 domain,";
  line "# 63-bit words) and Example 2.1 answers with the bulk engine on.";
  line "";
  Obs.Metrics.set_enabled true;
  Parmap.set_default_jobs 1;
  Fun.protect ~finally:(fun () -> Obs.Metrics.set_enabled false) @@ fun () ->
  let cells =
    List.filter
      (fun (_, g, _) -> Graph.nnodes g <= 256)
      (Suite.e16_cells ~seed:16 ~quick:true)
  in
  List.iter
    (fun (name, g, re) ->
      let nfa = Nfa.of_regex re in
      let s0 = Obs.Metrics.counter_value m_sweeps in
      let f0 = Obs.Metrics.counter_value m_frontier in
      let w0 = Obs.Metrics.counter_value m_words in
      let sp0 = Obs.Metrics.counter_value m_sparse in
      let de0 = Obs.Metrics.counter_value m_dense in
      let t0 = Obs.Metrics.counter_value m_tiles in
      let pairs = rel_pairs (Bulk_rpq.reach_relation g nfa) in
      line
        "e16.%s.multi_source = pairs=%d sweeps=%d frontier_bits=%d \
         words_anded=%d sweep_sparse=%d sweep_dense=%d tiles=%d"
        name pairs
        (Obs.Metrics.counter_value m_sweeps - s0)
        (Obs.Metrics.counter_value m_frontier - f0)
        (Obs.Metrics.counter_value m_words - w0)
        (Obs.Metrics.counter_value m_sparse - sp0)
        (Obs.Metrics.counter_value m_dense - de0)
        (Obs.Metrics.counter_value m_tiles - t0))
    cells;
  line "";
  let answers sem q g =
    match Eval.eval sem q g with
    | [] -> "(empty)"
    | rows ->
      rows
      |> List.map (fun tu -> String.concat "," (List.map string_of_int tu))
      |> String.concat " "
  in
  let q = Paper_examples.example_21_query in
  with_mode Bulk_rpq.On (fun () ->
      List.iter
        (fun sem ->
          line "bulk_on.example_21.G.%s = %s" (Semantics.to_string sem)
            (answers sem q Paper_examples.example_21_g))
        Semantics.all;
      List.iter
        (fun sem ->
          line "bulk_on.example_21.G'.%s = %s" (Semantics.to_string sem)
            (answers sem q Paper_examples.example_21_g'))
        Semantics.all);
  Buffer.contents buf

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let test_fixture () =
  let actual = render () in
  let expected = read_file fixture in
  if not (String.equal actual expected) then begin
    let al = String.split_on_char '\n' actual
    and el = String.split_on_char '\n' expected in
    let rec first_diff i = function
      | a :: arest, e :: erest ->
        if String.equal a e then first_diff (i + 1) (arest, erest)
        else (i, e, a)
      | a :: _, [] -> (i, "<end of fixture>", a)
      | [], e :: _ -> (i, e, "<end of output>")
      | [], [] -> (i, "", "")
    in
    let i, e, a = first_diff 1 (al, el) in
    Alcotest.failf
      "golden fixture mismatch at line %d@.  fixture : %s@.  actual  : %s@.\
       (regenerate with INJCRPQ_GOLDEN_REGEN if the change is intentional)"
      i e a
  end

(* Independent of the fixture text: forcing the engine on must not move
   any Example 2.1 answer set, under any of the five semantics. *)
let test_example_21_bulk_invariance () =
  let q = Paper_examples.example_21_query in
  List.iter
    (fun g ->
      List.iter
        (fun sem ->
          let off = with_mode Bulk_rpq.Off (fun () -> Eval.eval sem q g) in
          let on = with_mode Bulk_rpq.On (fun () -> Eval.eval sem q g) in
          Alcotest.(check bool)
            (Printf.sprintf "Example 2.1 under %s" (Semantics.to_string sem))
            true (off = on))
        Semantics.all)
    [ Paper_examples.example_21_g; Paper_examples.example_21_g' ]

let () =
  match Sys.getenv_opt "INJCRPQ_GOLDEN_REGEN" with
  | Some path ->
    let oc = open_out_bin path in
    output_string oc (render ());
    close_out oc;
    Printf.printf "wrote %s\n" path
  | None ->
    Alcotest.run "golden_bulk"
      [
        ( "bulk engine",
          [
            Alcotest.test_case "E16 fixture conformance" `Quick test_fixture;
            Alcotest.test_case "Example 2.1 bulk invariance" `Quick
              test_example_21_bulk_invariance;
          ] );
      ]
