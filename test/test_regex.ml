let check = Alcotest.check

let re = Regex.parse

let test_parse () =
  check Alcotest.bool "a matches a" true (Regex.matches (re "a") [ "a" ]);
  check Alcotest.bool "(ab)* matches eps" true (Regex.matches (re "(ab)*") []);
  check Alcotest.bool "(ab)* matches abab" true
    (Regex.matches (re "(ab)*") (Word.of_string "abab"));
  check Alcotest.bool "(ab)* rejects aba" false
    (Regex.matches (re "(ab)*") (Word.of_string "aba"));
  check Alcotest.bool "alt" true (Regex.matches (re "a|bc") (Word.of_string "bc"));
  check Alcotest.bool "plus rejects eps" false (Regex.matches (re "a+") []);
  check Alcotest.bool "plus accepts aa" true
    (Regex.matches (re "a+") (Word.of_string "aa"));
  check Alcotest.bool "opt accepts eps" true (Regex.matches (re "a?") []);
  check Alcotest.bool "bracket symbol" true
    (Regex.matches (re "<I1>b") [ "I1"; "b" ]);
  check Alcotest.bool "%% is eps" true (Regex.matches (re "%") []);
  check Alcotest.bool "! is empty" true (Regex.is_empty_lang (re "!"))

let test_parse_errors () =
  List.iter
    (fun s ->
      match Regex.parse s with
      | exception Regex.Parse_error _ -> ()
      | _ -> Alcotest.failf "expected parse error on %S" s)
    [ "("; "a)"; "*a"; "a||b"; "<unclosed"; "" ]

let test_print_parse_roundtrip =
  Testutil.qtest "print/parse roundtrip preserves matching"
    QCheck2.Gen.(pair (Testutil.gen_regex ()) (Testutil.gen_word ()))
    (fun (r, w) ->
      let r' = Regex.parse (Regex.to_string r) in
      Regex.matches r w = Regex.matches r' w)

let test_nullable =
  Testutil.qtest "nullable iff matches eps" (Testutil.gen_regex ()) (fun r ->
      Regex.nullable r = Regex.matches r [])

let test_enumerate_complete =
  Testutil.qtest ~count:60 "enumerate lists exactly the short words"
    (Testutil.gen_regex ~max_depth:2 ())
    (fun r ->
      let words = Regex.enumerate ~max_len:3 r in
      (* soundness *)
      List.for_all (fun w -> Regex.matches r w) words
      && (* completeness against a brute-force word sweep *)
      List.for_all
        (fun w -> (not (Regex.matches r w)) || List.mem w words)
        (List.concat_map
           (fun w2 -> [ w2 ])
           (let syms = [ "a"; "b"; "c" ] in
            let rec all n =
              if n = 0 then [ [] ]
              else
                let shorter = all (n - 1) in
                shorter
                @ List.concat_map
                    (fun w -> List.map (fun s -> s :: w) syms)
                    (List.filter (fun w -> List.length w = n - 1) shorter)
            in
            all 3)))

let test_remove_eps =
  Testutil.qtest "remove_eps removes exactly epsilon"
    QCheck2.Gen.(pair (Testutil.gen_regex ()) (Testutil.gen_word ()))
    (fun (r, w) ->
      let r' = Regex.remove_eps r in
      (not (Regex.nullable r'))
      && if w = [] then true else Regex.matches r' w = Regex.matches r w)

let test_derivative =
  Testutil.qtest "derivative characterizes matching"
    QCheck2.Gen.(
      triple (Testutil.gen_regex ()) Testutil.gen_symbol (Testutil.gen_word ()))
    (fun (r, a, w) -> Regex.matches (Regex.derivative a r) w = Regex.matches r (a :: w))

let test_reverse =
  Testutil.qtest "reverse matches reversed words"
    QCheck2.Gen.(pair (Testutil.gen_regex ()) (Testutil.gen_word ()))
    (fun (r, w) -> Regex.matches (Regex.reverse r) (List.rev w) = Regex.matches r w)

let test_is_finite () =
  check Alcotest.bool "a finite" true (Regex.is_finite (re "a"));
  check Alcotest.bool "ab|c finite" true (Regex.is_finite (re "ab|c"));
  check Alcotest.bool "a* infinite" false (Regex.is_finite (re "a*"));
  check Alcotest.bool "a+ infinite" false (Regex.is_finite (re "a+"));
  check Alcotest.bool "(%|a)* infinite" false (Regex.is_finite (re "(%|a)*"));
  (* a star over an epsilon-only language is still finite *)
  check Alcotest.bool "%* finite" true (Regex.is_finite (Regex.Star Regex.Eps));
  check Alcotest.bool "(!a)* finite" true
    (Regex.is_finite (Regex.Star (Regex.Seq (Regex.Empty, Regex.Sym "a"))))

let test_enumerate_negative_bound () =
  (* no word has negative length, not even ε *)
  List.iter
    (fun r ->
      check
        (Alcotest.list (Alcotest.list Alcotest.string))
        (r ^ " at -1") [] (Regex.enumerate ~max_len:(-1) (re r)))
    [ "%"; "a?"; "a*"; "(ab)+" ]

let test_words_of_finite () =
  let sorted = List.sort compare in
  check
    (Alcotest.list (Alcotest.list Alcotest.string))
    "ab|c" (sorted [ [ "c" ]; [ "a"; "b" ] ])
    (sorted (Regex.words_of_finite (re "ab|c")));
  check
    (Alcotest.list (Alcotest.list Alcotest.string))
    "a?b"
    (sorted [ [ "b" ]; [ "a"; "b" ] ])
    (sorted (Regex.words_of_finite (re "a?b")));
  Alcotest.check_raises "infinite raises"
    (Invalid_argument "Regex.words_of_finite: infinite language") (fun () ->
      ignore (Regex.words_of_finite (re "a*")))

let test_shortest =
  Testutil.qtest "shortest_word is a shortest match" (Testutil.gen_regex ())
    (fun r ->
      match Regex.shortest_word r with
      | None -> Regex.is_empty_lang r
      | Some w ->
        Regex.matches r w
        && List.for_all
             (fun w' -> List.length w' >= List.length w)
             (Regex.enumerate ~max_len:(List.length w) r))

let test_smart_constructors () =
  check Alcotest.bool "seq empty" true (Regex.seq Regex.Empty (re "a") = Regex.Empty);
  check Alcotest.bool "alt empty" true (Regex.alt Regex.Empty (re "a") = re "a");
  check Alcotest.bool "star star" true (Regex.star (Regex.star (re "a")) = Regex.star (re "a"));
  check Alcotest.bool "opt of plus is star" true
    (Regex.opt (Regex.plus (re "a")) = Regex.star (re "a"))

let test_word_language () =
  let w = Word.of_string "abc" in
  check Alcotest.bool "word matches itself" true (Regex.matches (Regex.word w) w);
  check Alcotest.bool "word rejects prefix" false
    (Regex.matches (Regex.word w) (Word.of_string "ab"))

let () =
  Alcotest.run "regex"
    [
      ( "unit",
        [
          Alcotest.test_case "parse" `Quick test_parse;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "is_finite" `Quick test_is_finite;
          Alcotest.test_case "words_of_finite" `Quick test_words_of_finite;
          Alcotest.test_case "enumerate below length 0" `Quick
            test_enumerate_negative_bound;
          Alcotest.test_case "smart constructors" `Quick test_smart_constructors;
          Alcotest.test_case "word language" `Quick test_word_language;
        ] );
      ( "properties",
        [
          test_print_parse_roundtrip;
          test_nullable;
          test_enumerate_complete;
          test_remove_eps;
          test_derivative;
          test_reverse;
          test_shortest;
        ] );
    ]
