(* The certificate-checked rewrite engine: applied rewrites carry
   both-direction containment proofs; refused certificates leave the
   query alone — including the injectivity-specific refusals where
   standard minimization would be unsound. *)

let q = Crpq.parse

let contained v = v = Containment.Contained

let all_applied_certified report =
  List.for_all
    (fun (s : Rewrite.step) ->
      (not s.Rewrite.applied)
      || List.length s.Rewrite.checks = 2
         && List.for_all (fun (c : Rewrite.check) -> contained c.Rewrite.verdict)
              s.Rewrite.checks)
    report.Rewrite.steps

(* ---------------- fixed behaviours ---------------- *)

let test_drop_redundant_st () =
  let query = q "Q(x, y) :- x -[a]-> y, x -[a|b]-> y" in
  let q', report = Rewrite.rewrite Semantics.St query in
  Alcotest.(check string) "implied atom dropped" "Q(x, y) :- x -[a]-> y"
    (Crpq.to_string q');
  Alcotest.(check int) "one atom removed" 1 (Rewrite.removed_atoms report);
  Alcotest.(check bool) "certified" true (all_applied_certified report)

let test_duplicate_kept_qinj () =
  (* the paper's Example 2.1 shape: under q-inj a duplicate atom demands
     a second, internally disjoint path, so dropping it is UNSOUND and
     the certificate (the Thm 5.1 abstraction algorithm) refuses *)
  let query = q "Q(x, y) :- x -[aa]-> y, x -[aa]-> y" in
  let q', report = Rewrite.rewrite Semantics.Q_inj query in
  Alcotest.(check string) "duplicate kept under q-inj" (Crpq.to_string query)
    (Crpq.to_string q');
  Alcotest.(check bool) "refusals recorded" true
    (List.exists
       (fun (s : Rewrite.step) ->
         (not s.Rewrite.applied)
         && List.exists
              (fun (c : Rewrite.check) ->
                match c.Rewrite.verdict with
                | Containment.Not_contained _ -> true
                | _ -> false)
              s.Rewrite.checks)
       report.Rewrite.steps);
  (* ... while under St the same drop is certified *)
  let q_st, _ = Rewrite.rewrite Semantics.St query in
  Alcotest.(check string) "duplicate dropped under st" "Q(x, y) :- x -[aa]-> y"
    (Crpq.to_string q_st)

let test_drop_semantics_dependent () =
  let size sem query = Crpq.size (fst (Rewrite.rewrite sem query)) in
  (* the ab-atom subsumes the a/b chain under standard semantics *)
  let chain = q "Q(x, z) :- x -[a]-> y, y -[b]-> z, x -[ab]-> z" in
  Alcotest.(check int) "st drops two" 1 (size Semantics.St chain);
  (* under q-inj the chain's variable y pins a shared node: nothing
     removable *)
  Alcotest.(check int) "q-inj keeps all" 3 (size Semantics.Q_inj chain);
  (* a literally duplicated atom is redundant under st and a-inj... *)
  let dup = q "x -[ab]-> y, x -[ab]-> y" in
  Alcotest.(check int) "st drops duplicate" 1 (size Semantics.St dup);
  Alcotest.(check int) "a-inj drops duplicate" 1 (size Semantics.A_inj dup);
  (* ... but not under q-inj, where it demands a second disjoint path *)
  Alcotest.(check int) "q-inj keeps duplicate" 2 (size Semantics.Q_inj dup)

let test_collapse_unsat () =
  let query = q "Q(x) :- x -[!]-> y, y -[a]-> z, z -[b]-> x" in
  List.iter
    (fun sem ->
      let q', report = Rewrite.rewrite sem query in
      Alcotest.(check string)
        (Semantics.to_string sem ^ " collapses")
        "Q(x) :- x -[!]-> x" (Crpq.to_string q');
      Alcotest.(check bool) "certified" true (all_applied_certified report))
    Semantics.node_semantics

let test_merge_eps () =
  let query = q "Q(x) :- x -[%]-> y, y -[a]-> z" in
  let q', report = Rewrite.rewrite Semantics.St query in
  Alcotest.(check string) "endpoints merged" "Q(x) :- x -[a]-> z" (Crpq.to_string q');
  Alcotest.(check bool) "certified" true (all_applied_certified report)

let test_merge_keeps_free_head () =
  (* both endpoints free: the head tuple must keep its shape, so no
     merge candidate is even generated *)
  let query = q "Q(x, y) :- x -[%]-> y, y -[a]-> z" in
  Alcotest.(check bool) "no merge candidate" true
    (List.for_all
       (function Rewrite.Merge_vars _ -> false | _ -> true)
       (Rewrite.candidates query))

let test_failing_oracle_is_identity () =
  (* an oracle that can never prove containment must block every rewrite *)
  let no_oracle _ q1 q2 =
    ignore q1;
    ignore q2;
    Containment.budget_exhausted ~bound:0 ~expansions:0
  in
  let query = q "Q(x) :- x -[!]-> y, x -[a]-> y, x -[a]-> y" in
  let q', report = Rewrite.rewrite ~oracle:no_oracle Semantics.St query in
  Alcotest.(check string) "query unchanged" (Crpq.to_string query) (Crpq.to_string q');
  Alcotest.(check bool) "no step applied" true
    (List.for_all (fun (s : Rewrite.step) -> not s.Rewrite.applied) report.Rewrite.steps);
  Alcotest.(check bool) "steps were recorded" true (report.Rewrite.steps <> [])

let test_guard_budget () =
  (* fuel 0: the analysis.rewrite checkpoint trips on the first candidate
     and the trip reaches the Guard.run boundary *)
  let query = q "Q(x) :- x -[a]-> y, x -[a]-> y" in
  match
    Guard.run ~guard:(Guard.create ~fuel:0 ()) (fun () ->
        Rewrite.rewrite Semantics.St query)
  with
  | Error trip -> Alcotest.(check string) "tripped site" "analysis.rewrite" trip.Guard.site
  | Ok _ -> Alcotest.fail "expected a guard trip"

(* ---------------- Analysis.optimize plumbing ---------------- *)

let test_optimize_report () =
  let query = q "Q(x, y) :- x -[a]-> y, x -[a|b]-> y, y -[c]-> z" in
  let q', report = Analysis.optimize ~sem:Semantics.St query in
  Alcotest.(check int) "atoms removed" 1 (Rewrite.removed_atoms report.Analysis.rewrite);
  Alcotest.(check int) "shape before atoms" 3 report.Analysis.shape_before.Query_shape.atoms;
  Alcotest.(check int) "shape after atoms" 2 report.Analysis.shape_after.Query_shape.atoms;
  Alcotest.(check bool) "after acyclic" true
    report.Analysis.shape_after.Query_shape.acyclic;
  Alcotest.(check string) "optimized" "Q(x, y) :- x -[a]-> y, y -[c]-> z"
    (Crpq.to_string q')

let test_preprocessor_reentrancy () =
  (* installing the optimizer as Eval/Containment pre-pass must not
     recurse: certificates inside optimize call Containment.decide,
     which sees the busy flag and passes queries through *)
  Analysis.install_preprocessor ();
  Fun.protect ~finally:Testutil.install_env_preprocessor (fun () ->
      let q1 = q "Q(x, y) :- x -[a]-> y, x -[a|b]-> y" in
      let q2 = q "Q(x, y) :- x -[a]-> y" in
      Alcotest.(check bool) "decide terminates" true
        (Containment.decide Semantics.St q1 q2 = Containment.Contained);
      let g = Graph.make ~nnodes:2 [ (0, "a", 1) ] in
      Alcotest.(check bool) "eval terminates" true
        (Eval.eval Semantics.St q1 g = [ [ 0; 1 ] ]))

(* ---------------- qcheck properties ---------------- *)

(* an oracle wrapper that records every (certified, applied) pair so the
   central property "certificate check failing => rewrite not applied"
   is observable from the outside *)
let logging_flaky_oracle ~rng log sem q1 q2 =
  let v =
    (* fail roughly half the checks, deterministically per call site *)
    if Random.State.bool rng then Containment.decide ~bound:2 sem q1 q2
    else Containment.budget_exhausted ~bound:0 ~expansions:0
  in
  log := (q1, q2, v) :: !log;
  v

let gen_query = Testutil.gen_crpq ~cls:Crpq.Class_fin ~max_atoms:3 ~max_vars:3 ~arity:1 ()

let qtests =
  [
    Testutil.qtest ~count:25 "rewrite preserves answers on a database"
      QCheck2.Gen.(
        pair
          (Testutil.gen_crpq ~cls:Crpq.Class_fin ~max_atoms:3 ~max_vars:2 ~arity:1 ())
          (Testutil.gen_graph ~max_nodes:3 ()))
      (fun (query, g) ->
        List.for_all
          (fun sem ->
            let q', _ = Rewrite.rewrite sem query in
            Eval.eval sem query g = Eval.eval sem q' g)
          Semantics.node_semantics);
    Testutil.qtest ~count:200 "failing certificate => rewrite not applied"
      gen_query (fun query ->
        let rng = Random.State.make [| Testutil.seed; 0xCE27 |] in
        let log = ref [] in
        let _, report =
          Rewrite.rewrite ~oracle:(logging_flaky_oracle ~rng log) Semantics.St query
        in
        (* every applied step carries two Contained checks; any step with
           a non-Contained check is not applied *)
        all_applied_certified report
        && List.for_all
             (fun (s : Rewrite.step) ->
               List.for_all
                 (fun (c : Rewrite.check) -> contained c.Rewrite.verdict)
                 s.Rewrite.checks
               || not s.Rewrite.applied)
             report.Rewrite.steps);
    Testutil.qtest ~count:200 "rewrite preserves the free tuple" gen_query
      (fun query ->
        let q', _ = Rewrite.rewrite ~oracle:(Rewrite.default_oracle ~bound:2 ()) Semantics.A_inj query in
        q'.Crpq.free = query.Crpq.free);
    Testutil.qtest ~count:100 "rewrite reaches a fixpoint" gen_query (fun query ->
        let oracle = Rewrite.default_oracle ~bound:2 () in
        let q1, _ = Rewrite.rewrite ~oracle Semantics.St query in
        let q2, report2 = Rewrite.rewrite ~oracle Semantics.St q1 in
        Crpq.to_string q1 = Crpq.to_string q2
        && List.for_all (fun (s : Rewrite.step) -> not s.Rewrite.applied)
             report2.Rewrite.steps);
  ]

let () =
  Alcotest.run "rewrite"
    [
      ( "fixed",
        [
          Alcotest.test_case "drop redundant atom (st)" `Quick test_drop_redundant_st;
          Alcotest.test_case "duplicate kept under q-inj" `Quick
            test_duplicate_kept_qinj;
          Alcotest.test_case "drops depend on the semantics" `Quick
            test_drop_semantics_dependent;
          Alcotest.test_case "collapse unsatisfiable" `Quick test_collapse_unsat;
          Alcotest.test_case "merge eps-joined vars" `Quick test_merge_eps;
          Alcotest.test_case "free head never merged" `Quick test_merge_keeps_free_head;
          Alcotest.test_case "failing oracle => identity" `Quick
            test_failing_oracle_is_identity;
          Alcotest.test_case "guard budget" `Quick test_guard_budget;
          Alcotest.test_case "optimize report" `Quick test_optimize_report;
          Alcotest.test_case "preprocessor re-entrancy" `Quick
            test_preprocessor_reentrancy;
        ] );
      ("qcheck", qtests);
    ]
