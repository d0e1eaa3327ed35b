(* The static-analysis subsystem: every diagnostic code fires on a
   minimal witness and stays silent on its repaired twin; the JSON
   rendering round-trips; redundancy suggestions are sound. *)

let check = Alcotest.check

let codes ds = List.sort_uniq String.compare (List.map (fun d -> d.Diagnostic.code) ds)

let has_code c ds = List.mem c (codes ds)

(* full lint with the cheap passes only, so witnesses stay minimal *)
let lint ?(sem = Semantics.St) ?graph q =
  Analysis.lint ~sem ~redundancy:false ?graph q

let test_e001_empty_language () =
  let witness = Crpq.parse "Q(x, y) :- x -[!]-> y" in
  let repaired = Crpq.parse "Q(x, y) :- x -[a]-> y" in
  check Alcotest.bool "witness fires" true (has_code "E001" (lint witness));
  check Alcotest.bool "witness is an error" true (Diagnostic.has_errors (lint witness));
  check Alcotest.bool "repaired silent" false (has_code "E001" (lint repaired));
  check Alcotest.bool "repaired has no errors" false
    (Diagnostic.has_errors (lint repaired))

let test_w002_eps_only () =
  let witness = Crpq.parse "Q(x) :- x -[%]-> y, y -[a]-> x" in
  let repaired = Crpq.parse "Q(x) :- x -[a?]-> y, y -[a]-> x" in
  check Alcotest.bool "witness fires" true (has_code "W002" (lint witness));
  (* a nullable but not ε-only language is not flagged *)
  check Alcotest.bool "repaired silent" false (has_code "W002" (lint repaired))

let test_w003_duplicate () =
  let witness = Crpq.parse "x -[ab]-> y, x -[ab]-> y" in
  let repaired = Crpq.parse "x -[ab]-> y" in
  let severity_of sem =
    match
      List.find_opt (fun d -> d.Diagnostic.code = "W003") (lint ~sem witness)
    with
    | Some d -> Some d.Diagnostic.severity
    | None -> None
  in
  (* idempotent under st and a-inj: a warning *)
  check Alcotest.bool "st warning" true (severity_of Semantics.St = Some Diagnostic.Warning);
  check Alcotest.bool "a-inj warning" true
    (severity_of Semantics.A_inj = Some Diagnostic.Warning);
  (* load-bearing under q-inj (two internally disjoint paths): info *)
  check Alcotest.bool "q-inj info" true
    (severity_of Semantics.Q_inj = Some Diagnostic.Info);
  check Alcotest.bool "repaired silent" false (has_code "W003" (lint repaired))

let test_w004_disconnected () =
  let witness = Crpq.parse "Q(x) :- x -[a]-> y, z -[b]-> w" in
  let repaired = Crpq.parse "Q(x) :- x -[a]-> y, y -[b]-> w" in
  let flagged =
    List.filter_map
      (fun d ->
        if d.Diagnostic.code = "W004" then
          match d.Diagnostic.location with
          | Diagnostic.Var v -> Some v
          | _ -> None
        else None)
      (lint witness)
  in
  check
    Alcotest.(list string)
    "flags the stray component" [ "w"; "z" ]
    (List.sort String.compare flagged);
  check Alcotest.bool "repaired silent" false (has_code "W004" (lint repaired));
  (* Boolean queries have no anchor: the pass is skipped *)
  check Alcotest.bool "boolean skipped" false
    (has_code "W004" (lint (Crpq.parse "x -[a]-> y, z -[b]-> w")))

let test_w005_unused_free () =
  let witness = Crpq.parse "Q(x, u) :- x -[a]-> y" in
  let repaired = Crpq.parse "Q(x, y) :- x -[a]-> y" in
  check Alcotest.bool "witness fires" true (has_code "W005" (lint witness));
  check Alcotest.bool "repaired silent" false (has_code "W005" (lint repaired))

let test_w104_empty_domain () =
  (* target: a -> b path only; no node has an outgoing c-edge *)
  let g = Graph.make ~nnodes:3 [ (0, "a", 1); (1, "b", 2) ] in
  let witness = Crpq.parse "x -[c]-> y" in
  let repaired = Crpq.parse "x -[a]-> y" in
  check Alcotest.bool "witness fires" true
    (has_code "W104" (lint ~graph:g witness));
  check Alcotest.bool "repaired silent" false
    (has_code "W104" (lint ~graph:g repaired));
  (* no graph supplied: the pass does not run *)
  check Alcotest.bool "no graph, no pass" false
    (has_code "W104" (lint witness));
  (* the constraint is per-variable across atoms: both a- and b-paths
     must leave x, which no node of g offers *)
  let joined = Crpq.parse "x -[a]-> y, x -[b]-> z" in
  check Alcotest.bool "cross-atom intersection fires" true
    (has_code "W104" (lint ~graph:g joined));
  let satisfiable = Crpq.parse "x -[a]-> y, y -[b]-> z" in
  check Alcotest.bool "satisfiable chain silent" false
    (has_code "W104" (lint ~graph:g satisfiable));
  (* empty graph: every constrained variable has an empty domain *)
  check Alcotest.bool "empty graph fires" true
    (has_code "W104" (lint ~graph:Graph.empty repaired));
  (* soundness on the witness: genuinely no answers *)
  check Alcotest.(list (list int)) "flagged query has no answers" []
    (Eval.eval Semantics.St (Crpq.parse "Q(x) :- x -[c]-> y") g)

let test_i006_redundant () =
  let witness = Crpq.parse "Q(x, z) :- x -[a]-> y, y -[b]-> z, x -[ab]-> z" in
  let ds = Lint_query.redundant_atoms ~sem:Semantics.St witness in
  check Alcotest.bool "st flags a redundancy" true (has_code "I006" ds);
  (* under q-inj the chain pins a shared middle node: nothing removable *)
  check
    Alcotest.(list string)
    "q-inj flags nothing" []
    (codes (Lint_query.redundant_atoms ~sem:Semantics.Q_inj witness));
  (* the minimized twin is silent *)
  let repaired, _ = Rewrite.rewrite Semantics.St witness in
  check
    Alcotest.(list string)
    "repaired silent" []
    (codes (Lint_query.redundant_atoms ~sem:Semantics.St repaired))

let test_i006_edge_semantics () =
  (* the deciders refuse the edge semantics (Section 7): the redundancy
     pass certifies nothing there, and the lint run still completes *)
  let query = Crpq.parse "Q(x, y) :- x -[a]-> y, x -[a|b]-> y" in
  List.iter
    (fun sem ->
      check
        Alcotest.(list string)
        (Semantics.to_string sem ^ " flags no I006")
        []
        (List.filter (String.equal "I006") (codes (Analysis.lint ~sem query))))
    [ Semantics.A_edge_inj; Semantics.Q_edge_inj ]

(* states: 0 init, 1 final, 2 reachable-but-dead, 3 unreachable *)
let dirty_nfa : Nfa.t =
  {
    Nfa.nstates = 4;
    initials = [ 0 ];
    finals = [| false; true; false; false |];
    delta = [| [ ("a", 1); ("b", 2) ]; []; []; [ ("a", 1) ] |];
  }

let test_nfa_hygiene () =
  let r = Lint_nfa.analyze dirty_nfa in
  check Alcotest.(list int) "unreachable" [ 3 ] r.Lint_nfa.unreachable;
  check Alcotest.(list int) "dead" [ 2 ] r.Lint_nfa.dead;
  check Alcotest.int "unproductive" 1 (List.length r.Lint_nfa.unproductive);
  let ds = Lint_nfa.diagnostics dirty_nfa in
  List.iter
    (fun c -> check Alcotest.bool c true (has_code c ds))
    [ "W101"; "W102"; "W103" ];
  (* the repaired twin is the trimmed automaton *)
  let trimmed = Nfa.trim dirty_nfa in
  check Alcotest.bool "trimmed clean" true (Lint_nfa.is_clean (Lint_nfa.analyze trimmed));
  check Alcotest.(list string) "trimmed silent" [] (codes (Lint_nfa.diagnostics trimmed));
  (* query-level summary: ! compiles to a dead-state NFA *)
  check Alcotest.bool "atom summary fires" true
    (has_code "W102" (Lint_nfa.atom_diagnostics (Crpq.parse "x -[!]-> y")));
  check Alcotest.(list string) "clean atom silent" []
    (codes (Lint_nfa.atom_diagnostics (Crpq.parse "x -[ab*]-> y")))

let test_validators () =
  (* E201 alphabet overlap *)
  let overlap = Validate.disjoint_alphabets ~what:"test sets" [ "a"; "b" ] [ "b"; "c" ] in
  check Alcotest.bool "E201 fires" true (has_code "E201" overlap);
  check Alcotest.(list string) "disjoint silent" []
    (codes (Validate.disjoint_alphabets ~what:"test sets" [ "a" ] [ "b" ]));
  (* E202 disconnected gadget *)
  let disconnected = Crpq.parse "x -[a]-> y, z -[a]-> w" in
  check Alcotest.bool "E202 fires" true
    (has_code "E202" (Validate.connected ~what:"gadget" disconnected));
  check Alcotest.(list string) "connected silent" []
    (codes (Validate.connected ~what:"gadget" (Crpq.parse "x -[a]-> y, y -[a]-> z")));
  (* E203 arity mismatch *)
  check Alcotest.bool "E203 fires" true
    (has_code "E203"
       (Validate.same_arity (Crpq.parse "Q(x) :- x -[a]-> y") (Crpq.parse "x -[a]-> y")));
  (* E204 trivial encoding *)
  let ds =
    Validate.containment_encoding ~q1:(Crpq.parse "x -[!]-> y")
      ~q2:(Crpq.parse "x -[a]-> y") ()
  in
  check Alcotest.bool "E204 fires" true (has_code "E204" ds);
  (* check: raises on errors, passes on clean *)
  check Alcotest.bool "check passes" true (Validate.check ~name:"t" []);
  (match Validate.check ~name:"t" ds with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "Validate.check should raise on errors");
  (* the real encodings validate cleanly (their encode asserts this too) *)
  let pcp = Pcp_to_ainj.encode Pcp.solvable_small in
  check Alcotest.bool "pcp encoding ok" true
    (not
       (Diagnostic.has_errors
          (Validate.containment_encoding
             ~connected_queries:[ ("Q1", pcp.Pcp_to_ainj.q1); ("Q2", pcp.Pcp_to_ainj.q2) ]
             ~q1:pcp.Pcp_to_ainj.q1 ~q2:pcp.Pcp_to_ainj.q2 ())))

let test_json_roundtrip () =
  let queries =
    [
      "Q(x, y) :- x -[!]-> y, x -[ab]-> y, x -[ab]-> y, z -[c]-> w";
      "Q(x, u) :- x -[%]-> y";
      "x -[a\"b\\c]-> y";
      (* quote/backslash-free but multi-byte: ε in the W002 message *)
      "Q(x) :- x -[%]-> y";
    ]
  in
  List.iter
    (fun s ->
      let ds =
        match Crpq.parse_result s with
        | Ok q -> lint q @ Lint_nfa.diagnostics dirty_nfa
        | Error _ ->
          (* a parse failure still exercises the renderer via a synthetic
             diagnostic with hostile characters *)
          [
            Diagnostic.make ~code:"E999" ~severity:Diagnostic.Error
              ~location:(Diagnostic.Var "x\"\\\n\t")
              "message with \"quotes\", back\\slashes,\nnewlines and \x01control";
          ]
      in
      match Diagnostic.list_of_json (Diagnostic.list_to_json ds) with
      | Ok ds' ->
        check Alcotest.bool (Printf.sprintf "round-trip %S" s) true
          (List.for_all2 Diagnostic.equal ds ds')
      | Error msg -> Alcotest.fail (Printf.sprintf "parse back %S: %s" s msg))
    queries;
  (* single-object round-trip and whitespace tolerance *)
  let d =
    Diagnostic.make ~code:"E001" ~severity:Diagnostic.Error
      ~location:(Diagnostic.Atom 2) "msg"
  in
  check Alcotest.bool "of_json inverts to_json" true
    (Diagnostic.of_json (Diagnostic.to_json d) = Ok d);
  check Alcotest.bool "whitespace tolerated" true
    (Diagnostic.list_of_json
       (" [ {\"code\" : \"E001\", \"severity\":\"error\", \"location\":\"atom:2\", \
         \"message\":\"msg\"} ] ")
    = Ok [ d ])

let test_parse_result () =
  (match Crpq.parse_result "x -[a->" with
  | Error e ->
    check Alcotest.bool "reason mentions bracket" true
      (String.length e.Crpq.reason > 0);
    check Alcotest.bool "has position" true (e.Crpq.position <> None)
  | Ok _ -> Alcotest.fail "should not parse");
  (match Crpq.parse_result "Q(x) :- x -[a**|]-> y" with
  | Error e ->
    check Alcotest.bool "regex error surfaces fragment" true
      (e.Crpq.fragment <> "")
  | Ok _ -> ());
  (match Crpq.parse_result "Q(x, y) :- x -[(ab)*]-> y" with
  | Ok q -> check Alcotest.int "good query parses" 1 (Crpq.size q)
  | Error e -> Alcotest.fail (Crpq.string_of_parse_error e));
  match Crpq.parse "x -[a->" with
  | exception Crpq.Parse_error _ -> ()
  | _ -> Alcotest.fail "parse should raise Parse_error"

let test_workload_precheck () =
  check Alcotest.bool "rejects empty-language" false
    (Suite.precheck (Crpq.parse "x -[!]-> y"));
  check Alcotest.bool "rejects eps-only" false (Suite.precheck (Crpq.parse "x -[%]-> y"));
  check Alcotest.bool "accepts normal" true (Suite.precheck (Crpq.parse "x -[a+]-> y"));
  (* generated suites contain no degenerate queries *)
  List.iter
    (fun (_, _, _, _, pairs) ->
      List.iter
        (fun (q1, q2) ->
          check Alcotest.bool "fig1 q1 ok" true (Suite.precheck q1);
          check Alcotest.bool "fig1 q2 ok" true (Suite.precheck q2))
        pairs)
    (Suite.fig1_cells ~seed:42 ~per_cell:2)

let test_ucrpq_lint () =
  let u =
    Ucrpq.make [ Crpq.parse "Q(x) :- x -[a]-> y"; Crpq.parse "Q(x) :- x -[!]-> y" ]
  in
  let ds = Analysis.lint_ucrpq ~redundancy:false u in
  check Alcotest.bool "bad disjunct flagged" true (has_code "E001" ds);
  check Alcotest.bool "prefixed with disjunct index" true
    (List.exists
       (fun d ->
         d.Diagnostic.code = "E001"
         && String.length d.Diagnostic.message >= 11
         && String.sub d.Diagnostic.message 0 11 = "disjunct 1:")
       ds)

(* An E001-empty left atom now short-circuits the containment
   dispatcher before the (possibly exponential) disjunct computation. *)
let test_containment_fastpath () =
  let q1 = Crpq.parse "Q(x, y) :- x -[!]-> y, x -[(ab)*]-> y" in
  let q2 = Crpq.parse "Q(x, y) :- x -[c]-> y" in
  check Alcotest.bool "trivially contained" true
    (Containment.strategy_name Semantics.A_inj q1 q2
    = "trivial (unsatisfiable left query)");
  check Alcotest.bool "verdict contained" true
    (Containment.verdict_bool (Containment.decide Semantics.A_inj q1 q2) = Some true)

(* Soundness of the redundancy suggestions: dropping any single
   I006-flagged atom preserves Eval.eval answers, per node semantics. *)
let rec remove_nth i = function
  | [] -> []
  | x :: rest -> if i = 0 then rest else x :: remove_nth (i - 1) rest

let prop_redundant_drop_preserves_answers =
  Testutil.qtest ~count:20 "dropping an I006-flagged atom preserves answers"
    QCheck2.Gen.(
      pair
        (Testutil.gen_crpq ~cls:Crpq.Class_fin ~max_atoms:3 ~max_vars:2 ~arity:1 ())
        (Testutil.gen_graph ~max_nodes:3 ()))
    (fun (q, g) ->
      List.for_all
        (fun sem ->
          let flagged =
            List.filter_map
              (fun d ->
                match d.Diagnostic.location with
                | Diagnostic.Atom i when d.Diagnostic.code = "I006" -> Some i
                | _ -> None)
              (Lint_query.redundant_atoms ~sem q)
          in
          List.for_all
            (fun i ->
              let q' = Crpq.make ~free:q.Crpq.free (remove_nth i q.Crpq.atoms) in
              Eval.eval sem q g = Eval.eval sem q' g)
            flagged)
        Semantics.node_semantics)

(* W104 against its n² definition: a variable's domain keeps a node iff
   every atom leaving the variable has an accepted path out of it and
   every atom entering it an accepted path into it, read off the
   reference relation [Path_oracle.reach_relation].  The pass must flag
   the same variables at the same atoms. *)
let prop_w104_matches_relation =
  Testutil.qtest ~count:150 "W104 agrees with the n² reach relation"
    QCheck2.Gen.(
      pair
        (Testutil.gen_crpq ~max_atoms:3 ~max_vars:3 ~arity:1 ())
        (Testutil.gen_graph ~max_nodes:5 ()))
    (fun (q, g) ->
      let n = Graph.nnodes g in
      let domains = Hashtbl.create 8 in
      let restrict x keep =
        let d = Option.value (Hashtbl.find_opt domains x) ~default:(Array.make n true) in
        Hashtbl.replace domains x (Array.mapi (fun u b -> b && keep u) d)
      in
      List.iter
        (fun (a : Crpq.atom) ->
          if not (Regex.is_empty_lang a.Crpq.lang) then begin
            let rel = Path_oracle.reach_relation g (Nfa.of_regex a.Crpq.lang) in
            restrict a.Crpq.src (fun u -> Array.exists Fun.id rel.(u));
            restrict a.Crpq.dst (fun v -> Array.exists (fun row -> row.(v)) rel)
          end)
        q.Crpq.atoms;
      let empty x =
        match Hashtbl.find_opt domains x with
        | Some d -> not (Array.exists Fun.id d)
        | None -> false
      in
      let reported = Hashtbl.create 8 in
      let expected =
        List.concat
          (List.mapi
             (fun i (a : Crpq.atom) ->
               List.filter_map
                 (fun x ->
                   if empty x && not (Hashtbl.mem reported x) then begin
                     Hashtbl.add reported x ();
                     Some (i, x)
                   end
                   else None)
                 (List.sort_uniq String.compare [ a.Crpq.src; a.Crpq.dst ]))
             q.Crpq.atoms)
      in
      let got =
        List.map
          (fun d ->
            match d.Diagnostic.location with
            | Diagnostic.Atom i ->
              (i, Scanf.sscanf d.Diagnostic.message "variable %s " Fun.id)
            | _ -> (-1, ""))
          (Lint_query.empty_domain_atoms ~graph:g q)
      in
      got = expected)

let () =
  Alcotest.run "analysis"
    [
      ( "unit",
        [
          Alcotest.test_case "E001 empty language" `Quick test_e001_empty_language;
          Alcotest.test_case "W002 eps-only atom" `Quick test_w002_eps_only;
          Alcotest.test_case "W003 duplicate atom" `Quick test_w003_duplicate;
          Alcotest.test_case "W004 disconnected variable" `Quick test_w004_disconnected;
          Alcotest.test_case "W005 unused free variable" `Quick test_w005_unused_free;
          Alcotest.test_case "W104 empty candidate domain" `Quick
            test_w104_empty_domain;
          Alcotest.test_case "I006 redundant atom" `Quick test_i006_redundant;
          Alcotest.test_case "I006 under edge semantics" `Quick
            test_i006_edge_semantics;
          Alcotest.test_case "NFA hygiene" `Quick test_nfa_hygiene;
          Alcotest.test_case "reduction validators" `Quick test_validators;
          Alcotest.test_case "JSON round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "structured parse errors" `Quick test_parse_result;
          Alcotest.test_case "workload precheck" `Quick test_workload_precheck;
          Alcotest.test_case "UCRPQ lint" `Quick test_ucrpq_lint;
          Alcotest.test_case "containment fast-path" `Quick test_containment_fastpath;
        ] );
      ( "properties",
        [ prop_redundant_drop_preserves_answers; prop_w104_matches_relation ] );
    ]
