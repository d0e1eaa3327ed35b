let gen_rw = QCheck2.Gen.pair (Testutil.gen_regex ()) (Testutil.gen_word ())

let test_accepts_matches =
  Testutil.qtest ~count:200 "NFA accepts iff derivative matcher accepts" gen_rw
    (fun (r, w) -> Nfa.accepts (Nfa.of_regex r) w = Regex.matches r w)

let test_accepts_eps =
  Testutil.qtest "accepts_eps iff nullable" (Testutil.gen_regex ()) (fun r ->
      Nfa.accepts_eps (Nfa.of_regex r) = Regex.nullable r)

let test_is_empty =
  Testutil.qtest "is_empty iff empty language" (Testutil.gen_regex ()) (fun r ->
      Nfa.is_empty (Nfa.of_regex r) = Regex.is_empty_lang r)

let test_union =
  Testutil.qtest ~count:120 "union recognizes the union"
    QCheck2.Gen.(
      triple (Testutil.gen_regex ~max_depth:2 ()) (Testutil.gen_regex ~max_depth:2 ())
        (Testutil.gen_word ()))
    (fun (r, s, w) ->
      let p = Nfa.union (Nfa.of_regex r) (Nfa.of_regex s) in
      Nfa.accepts p w = (Regex.matches r w || Regex.matches s w))

let test_reverse =
  Testutil.qtest "reverse recognizes reversed words" gen_rw (fun (r, w) ->
      Nfa.accepts (Nfa.reverse (Nfa.of_regex r)) (List.rev w) = Regex.matches r w)

let test_trim =
  Testutil.qtest "trim preserves the language" gen_rw (fun (r, w) ->
      Nfa.accepts (Nfa.trim (Nfa.of_regex r)) w = Regex.matches r w)

let alphabet = [ "a"; "b"; "c" ]

let test_complete =
  Testutil.qtest "complete preserves language and is complete" gen_rw
    (fun (r, w) ->
      let n = Nfa.complete ~alphabet (Nfa.of_regex r) in
      Nfa.accepts n w = Regex.matches r w
      && List.for_all
           (fun q ->
             List.for_all
               (fun x ->
                 List.exists (fun (y, _) -> String.equal x y) n.Nfa.delta.(q))
               alphabet)
           (List.init n.Nfa.nstates (fun i -> i)))

let test_co_complete =
  Testutil.qtest "co_complete preserves language and is co-complete" gen_rw
    (fun (r, w) ->
      let n = Nfa.co_complete ~alphabet (Nfa.of_regex r) in
      let has_in = Hashtbl.create 64 in
      Array.iter
        (List.iter (fun (x, q') -> Hashtbl.replace has_in (x, q') ()))
        n.Nfa.delta;
      Nfa.accepts n w = Regex.matches r w
      && List.for_all
           (fun q -> List.for_all (fun x -> Hashtbl.mem has_in (x, q)) alphabet)
           (List.init n.Nfa.nstates (fun i -> i)))

let test_enumerate =
  Testutil.qtest ~count:60 "enumerate agrees with regex enumeration"
    (Testutil.gen_regex ~max_depth:2 ())
    (fun r ->
      Nfa.enumerate ~max_len:3 (Nfa.of_regex r) = Regex.enumerate ~max_len:3 r)

let test_shortest =
  Testutil.qtest "shortest word accepted and minimal" (Testutil.gen_regex ())
    (fun r ->
      let n = Nfa.of_regex r in
      match Nfa.shortest_word n, Regex.shortest_word r with
      | None, None -> true
      | Some w, Some w' -> Nfa.accepts n w && List.length w = List.length w'
      | _ -> false)

let test_union_list () =
  let nfas = List.map (fun s -> Nfa.of_regex (Regex.parse s)) [ "a"; "b"; "ab" ] in
  let combined, offsets = Nfa.union_list nfas in
  Alcotest.check Alcotest.int "offset 0" 0 offsets.(0);
  Alcotest.check Alcotest.bool "accepts a" true (Nfa.accepts combined [ "a" ]);
  Alcotest.check Alcotest.bool "accepts ab" true
    (Nfa.accepts combined [ "a"; "b" ]);
  Alcotest.check Alcotest.bool "rejects ba" false
    (Nfa.accepts combined [ "b"; "a" ]);
  (* offsets are increasing and within range *)
  Alcotest.check Alcotest.bool "offsets increasing" true
    (offsets.(0) < offsets.(1) && offsets.(1) < offsets.(2));
  Alcotest.check Alcotest.bool "offsets bounded" true
    (offsets.(2) < combined.Nfa.nstates)

let test_next_set () =
  let n = Nfa.of_regex (Regex.parse "ab|ac") in
  let after_a = Nfa.next_set n n.Nfa.initials "a" in
  Alcotest.check Alcotest.bool "a leads somewhere" true (after_a <> []);
  let after_ab = Nfa.next_set n after_a "b" in
  Alcotest.check Alcotest.bool "ab accepted" true
    (List.exists (Nfa.is_final n) after_ab)

let () =
  Alcotest.run "nfa"
    [
      ( "unit",
        [
          Alcotest.test_case "union_list" `Quick test_union_list;
          Alcotest.test_case "next_set" `Quick test_next_set;
        ] );
      ( "properties",
        [
          test_accepts_matches;
          test_accepts_eps;
          test_is_empty;
          test_union;
          test_reverse;
          test_trim;
          test_complete;
          test_co_complete;
          test_enumerate;
          test_shortest;
        ] );
    ]
