let gen_rw = QCheck2.Gen.pair (Testutil.gen_regex ~max_depth:2 ()) (Testutil.gen_word ())

let prop_of_nfa_roundtrip =
  Testutil.qtest ~count:120 "state elimination preserves the language" gen_rw
    (fun (r, w) ->
      let r' = Lang_ops.of_nfa (Nfa.of_regex r) in
      Regex.matches r' w = Regex.matches r w)

let test_units () =
  Alcotest.check Alcotest.bool "empty of_nfa" true
    (Regex.is_empty_lang (Lang_ops.of_nfa (Nfa.of_regex Regex.Empty)))

let () =
  Alcotest.run "lang_ops"
    [
      ("unit", [ Alcotest.test_case "identities" `Quick test_units ]);
      ("properties", [ prop_of_nfa_roundtrip ]);
    ]
