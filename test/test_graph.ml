let check = Alcotest.check

let g0 = Graph.make ~nnodes:4 [ (0, "a", 1); (1, "b", 2); (2, "a", 0); (3, "c", 3) ]

let test_basics () =
  check Alcotest.int "nnodes" 4 (Graph.nnodes g0);
  check Alcotest.int "nedges" 4 (Graph.nedges g0);
  check Alcotest.bool "mem_edge" true (Graph.mem_edge g0 0 "a" 1);
  check Alcotest.bool "mem_edge label" false (Graph.mem_edge g0 0 "b" 1);
  check Alcotest.bool "self loop" true (Graph.mem_edge g0 3 "c" 3);
  check (Alcotest.list Alcotest.int) "succ" [ 1 ] (Graph.succ g0 0 "a");
  check Alcotest.int "out_degree" 1 (Graph.out_degree g0 0);
  check Alcotest.int "in_degree" 1 (Graph.in_degree g0 0);
  check (Alcotest.list Alcotest.string) "alphabet" [ "a"; "b"; "c" ]
    (Graph.alphabet g0)

let test_dedup () =
  let g = Graph.make ~nnodes:2 [ (0, "a", 1); (0, "a", 1) ] in
  check Alcotest.int "duplicate edges removed" 1 (Graph.nedges g)

let test_out_of_range () =
  Alcotest.check_raises "out of range" (Invalid_argument "Graph.make: node out of range")
    (fun () -> ignore (Graph.make ~nnodes:2 [ (0, "a", 5) ]))

let test_of_edges () =
  let g = Graph.of_edges [ (0, "a", 7) ] in
  check Alcotest.int "nnodes inferred" 8 (Graph.nnodes g)

let test_components () =
  check Alcotest.int "two components" 2 (List.length (Graph.components g0));
  check Alcotest.bool "not connected" false (Graph.is_connected g0);
  let g = Graph.make ~nnodes:3 [ (0, "a", 1); (2, "a", 1) ] in
  check Alcotest.bool "weakly connected" true (Graph.is_connected g)

let test_induced () =
  let sub, remap = Graph.induced g0 (fun v -> v < 3) in
  check Alcotest.int "induced nodes" 3 (Graph.nnodes sub);
  check Alcotest.int "induced edges" 3 (Graph.nedges sub);
  check Alcotest.int "node 3 dropped" (-1) remap.(3)

let test_disjoint_union () =
  let u, shift = Graph.disjoint_union g0 g0 in
  check Alcotest.int "nodes doubled" 8 (Graph.nnodes u);
  check Alcotest.int "edges doubled" 8 (Graph.nedges u);
  check Alcotest.int "shift" 4 shift;
  check Alcotest.bool "shifted edge" true (Graph.mem_edge u 4 "a" 5)

let test_add_edges () =
  let g = Graph.add_edges g0 [ (0, "z", 5) ] in
  check Alcotest.int "grown" 6 (Graph.nnodes g);
  check Alcotest.bool "old edge kept" true (Graph.mem_edge g 0 "a" 1)

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let test_to_dot () =
  let dot = Graph.to_dot g0 in
  check Alcotest.bool "mentions edge" true (contains ~needle:"n0 -> n1" dot);
  check Alcotest.bool "mentions label" true (contains ~needle:"label=\"a\"" dot)

(* ---------------- Graph_io parsing ---------------- *)

let parse_ok text =
  match Graph_io.of_string_result text with
  | Ok g -> g
  | Error e -> Alcotest.failf "unexpected parse error: %s" e

let parse_err name ~mentions text =
  match Graph_io.of_string_result text with
  | Ok _ -> Alcotest.failf "%s: malformed input accepted" name
  | Error e ->
    check Alcotest.bool
      (Printf.sprintf "%s: error mentions %S (got %S)" name mentions e)
      true
      (contains ~needle:mentions e)

let test_io_roundtrip () =
  let g = parse_ok (Graph_io.to_string g0) in
  check Alcotest.int "nodes survive round-trip" (Graph.nnodes g0)
    (Graph.nnodes g);
  check Alcotest.bool "edges survive round-trip" true
    (Graph.edges g = Graph.edges g0)

let test_io_whitespace () =
  (* tabs, runs of blanks, comments and blank lines are all fine *)
  let g = parse_ok "# header\n0\ta\t1\n\n1  b \t 2\n  2 a 0  \n" in
  check Alcotest.int "three edges" 3 (Graph.nedges g);
  check Alcotest.bool "tab-separated edge" true (Graph.mem_edge g 0 "a" 1);
  check Alcotest.bool "mixed-separator edge" true (Graph.mem_edge g 1 "b" 2)

let test_io_empty () =
  let g = parse_ok "" in
  check Alcotest.int "empty input, empty graph" 0 (Graph.nnodes g);
  let g = parse_ok "# only a comment\n\n" in
  check Alcotest.int "comments only, empty graph" 0 (Graph.nnodes g)

let test_io_malformed_lines () =
  parse_err "missing field" ~mentions:"line 1" "0 a\n";
  parse_err "extra field" ~mentions:"line 1" "0 a 1 2\n";
  parse_err "line number counts comments" ~mentions:"line 3"
    "0 a 1\n# fine\n0 b\n"

let test_io_strict_node_ids () =
  (* spellings int_of_string_opt would accept but an edge file does not
     mean: hex, underscores, explicit sign, negatives *)
  parse_err "hex id" ~mentions:"bad node id" "0x10 a 1\n";
  parse_err "underscore id" ~mentions:"bad node id" "1_0 a 1\n";
  parse_err "signed id" ~mentions:"bad node id" "+3 a 1\n";
  parse_err "negative id" ~mentions:"bad node id" "0 a -1\n";
  parse_err "alphabetic id" ~mentions:"bad node id" "0 a x\n";
  parse_err "overflowing id" ~mentions:"bad node id"
    "99999999999999999999 a 0\n"

(* ---------------- streaming file loads ---------------- *)

let with_temp_file contents f =
  let path = Filename.temp_file "injcrpq_graph" ".edges" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let oc = open_out_bin path in
      output_string oc contents;
      close_out oc;
      f path)

let test_load_roundtrip () =
  with_temp_file (Graph_io.to_string g0) (fun path ->
      let g = Graph_io.load path in
      check Alcotest.int "nodes survive file round-trip" (Graph.nnodes g0)
        (Graph.nnodes g);
      check Alcotest.bool "edges survive file round-trip" true
        (Graph.edges g = Graph.edges g0))

let test_load_matches_of_string () =
  (* the streaming loader and the in-memory parser accept the same
     inputs with the same edges, and reject the same inputs with the
     same line-numbered messages — CRLF and comment lines included *)
  let inputs =
    [
      "# header\r\n0 a 1\r\n\r\n1  b \t 2\n";
      "";
      "0 a 1\n1 a 2\n2 a 0";
      "0 a\n";
      "0 a 1\n# fine\n0 b\n";
      "0x10 a 1\n";
      "0 a -1\n";
    ]
  in
  List.iter
    (fun text ->
      with_temp_file text (fun path ->
          match (Graph_io.of_string_result text, Graph_io.load_result path) with
          | Ok g1, Ok g2 ->
            check Alcotest.bool
              (Printf.sprintf "load agrees with of_string on %S" text)
              true (Graph.edges g1 = Graph.edges g2)
          | Error e1, Error e2 ->
            check Alcotest.string
              (Printf.sprintf "identical error on %S" text)
              e1 e2
          | Ok _, Error e ->
            Alcotest.failf "load rejects %S (%s) but of_string accepts" text e
          | Error e, Ok _ ->
            Alcotest.failf "of_string rejects %S (%s) but load accepts" text e))
    inputs

let test_load_missing_file () =
  (match Graph_io.load_result "/nonexistent/injcrpq.edges" with
  | Ok _ -> Alcotest.fail "load_result succeeded on a missing file"
  | Error e ->
    check Alcotest.bool
      (Printf.sprintf "error mentions the path (got %S)" e)
      true
      (contains ~needle:"injcrpq.edges" e));
  check Alcotest.bool "load raises Sys_error" true
    (match Graph_io.load "/nonexistent/injcrpq.edges" with
    | exception Sys_error _ -> true
    | _ -> false)

let test_load_large_stream () =
  (* a file big enough to span many chunks streams through with the
     right edge count and no quadratic re-reading *)
  let n = 20_000 in
  let buf = Buffer.create (n * 8) in
  for i = 0 to n - 1 do
    Buffer.add_string buf (Printf.sprintf "%d a %d\n" i ((i + 1) mod n))
  done;
  with_temp_file (Buffer.contents buf) (fun path ->
      let g = Graph_io.load path in
      check Alcotest.int "streamed node count" n (Graph.nnodes g);
      check Alcotest.int "streamed edge count" n (Graph.nedges g))

let prop_in_out_consistent =
  Testutil.qtest "in/out edge views agree" (Testutil.gen_graph ()) (fun g ->
      List.for_all
        (fun (u, a, v) ->
          List.mem (a, v) (Graph.out g u) && List.mem (a, u) (Graph.in_ g v))
        (Graph.edges g))

let prop_degree_sum =
  Testutil.qtest "degree sums equal edge count" (Testutil.gen_graph ()) (fun g ->
      let nodes = Graph.nodes g in
      List.fold_left (fun acc u -> acc + Graph.out_degree g u) 0 nodes
      = Graph.nedges g
      && List.fold_left (fun acc u -> acc + Graph.in_degree g u) 0 nodes
         = Graph.nedges g)

let prop_components_partition =
  Testutil.qtest "components partition the nodes" (Testutil.gen_graph ())
    (fun g ->
      let comps = Graph.components g in
      List.sort compare (List.concat comps) = Graph.nodes g)

(* Edge membership, by label or by label id, is [List.mem] over the
   edge list, also for nodes out of range, labels no edge carries and
   label ids out of range. *)
let prop_mem_edge =
  Testutil.qtest "mem_edge and mem_edge_id agree with the edge list"
    (Testutil.gen_graph ()) (fun g ->
      let n = Graph.nnodes g in
      let nodes = List.init (n + 3) (fun u -> u - 1) in
      List.for_all
        (fun a ->
          let id = Graph.label_id g a in
          List.for_all
            (fun u ->
              List.for_all
                (fun v ->
                  let expected = List.mem (u, a, v) (Graph.edges g) in
                  Graph.mem_edge g u a v = expected
                  && (match id with
                     | Some ai -> Graph.mem_edge_id g u ai v = expected
                     | None -> not expected))
                nodes)
            nodes)
        [ "a"; "b"; "c"; "z" ]
      && List.for_all
           (fun ai ->
             List.for_all (fun u -> not (Graph.mem_edge_id g u ai u)) nodes)
           [ -1; Graph.nlabels g ])

let () =
  Alcotest.run "graph"
    [
      ( "unit",
        [
          Alcotest.test_case "basics" `Quick test_basics;
          Alcotest.test_case "dedup" `Quick test_dedup;
          Alcotest.test_case "out of range" `Quick test_out_of_range;
          Alcotest.test_case "of_edges" `Quick test_of_edges;
          Alcotest.test_case "components" `Quick test_components;
          Alcotest.test_case "induced" `Quick test_induced;
          Alcotest.test_case "disjoint union" `Quick test_disjoint_union;
          Alcotest.test_case "add edges" `Quick test_add_edges;
          Alcotest.test_case "dot" `Quick test_to_dot;
        ] );
      ( "graph_io",
        [
          Alcotest.test_case "round-trip" `Quick test_io_roundtrip;
          Alcotest.test_case "whitespace and comments" `Quick
            test_io_whitespace;
          Alcotest.test_case "empty input" `Quick test_io_empty;
          Alcotest.test_case "malformed lines" `Quick test_io_malformed_lines;
          Alcotest.test_case "strict node ids" `Quick test_io_strict_node_ids;
        ] );
      ( "streaming load",
        [
          Alcotest.test_case "file round-trip" `Quick test_load_roundtrip;
          Alcotest.test_case "load = of_string (edges and errors)" `Quick
            test_load_matches_of_string;
          Alcotest.test_case "missing file" `Quick test_load_missing_file;
          Alcotest.test_case "large stream" `Quick test_load_large_stream;
        ] );
      ( "properties",
        [
          prop_in_out_consistent;
          prop_degree_sum;
          prop_components_partition;
          prop_mem_edge;
        ] );
    ]
