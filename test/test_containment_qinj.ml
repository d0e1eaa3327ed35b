let check = Alcotest.check

let decide q1 q2 = Containment_qinj.decide (Crpq.parse q1) (Crpq.parse q2)

let expect name expected q1 q2 =
  match decide q1 q2 with
  | Containment_qinj.Qinj_contained -> check Alcotest.bool name expected true
  | Containment_qinj.Qinj_not_contained _ -> check Alcotest.bool name expected false

(* ------------------------------------------------------------------ *)
(* Deterministic cases for the abstraction algorithm                   *)
(* ------------------------------------------------------------------ *)

let test_single_atom_cases () =
  expect "a+ in a*" true "x -[a+]-> y" "x -[a*]-> y";
  expect "a* not in a+" false "x -[a*]-> y" "x -[a+]-> y";
  expect "a+ not in (aa)+" false "x -[a+]-> y" "x -[(aa)+]-> y";
  expect "(aa)+ in a+" true "x -[(aa)+]-> y" "x -[a+]-> y";
  expect "(ab)+ in (ab)+" true "x -[(ab)+]-> y" "x -[(ab)+]-> y";
  expect "(ab)+ in (a|b)+" true "x -[(ab)+]-> y" "x -[(a|b)+]-> y";
  expect "(a|b)+ not in (ab)+" false "x -[(a|b)+]-> y" "x -[(ab)+]-> y"

let test_multi_atom_cases () =
  expect "drop atom" true "x -[a+]-> y, y -[b]-> z" "x -[a+]-> y";
  expect "cannot invent atom" false "x -[a+]-> y" "x -[a+]-> y, y -[b]-> z";
  (* Example 4.7 lifted with a star: Q1' ⊄q-inj Q2' stays *)
  expect "47-style" false "x -[a+]-> y, x -[b]-> y" "x -[a+]-> y, u -[b]-> v";
  (* splitting a path needs an internal variable of Q1 *)
  (* Remark C.1: concatenation at a non-free (1,1) variable is an
     equivalence, in both directions *)
  expect "composition" true "x -[a]-> y, y -[b+]-> z" "x -[ab+]-> z";
  expect "decomposition" true "x -[ab+]-> z" "x -[a]-> y, y -[b+]-> z"

let test_free_variable_cases () =
  expect "frees aligned" true "Q(x, y) :- x -[a+]-> y" "Q(x, y) :- x -[a+]-> y";
  expect "frees crossed" false "Q(x, y) :- x -[a+]-> y" "Q(y, x) :- x -[a+]-> y";
  (* boolean projection of the same pair is contained *)
  expect "boolean" true "x -[a+]-> y" "x -[a+]-> y"

let test_self_loops_and_duplicates () =
  (* self-loop atoms expand to simple cycles *)
  expect "loop refl" true "x -[a+]-> x" "x -[a+]-> x";
  expect "loop relax" true "x -[(ab)+]-> x" "x -[(a|b)+]-> x";
  expect "loop not path" false "x -[a+]-> x" "x -[a+]-> y";
  (* a path query is NOT contained in a loop query *)
  expect "path not loop" false "x -[a+]-> y" "x -[a+]-> x";
  (* duplicate atoms demand internally disjoint paths *)
  expect "duplicates imply single" true "x -[a+]-> y, x -[a+]-> y" "x -[a+]-> y";
  (* Boolean right side: both duplicated atoms may land on a single edge
     somewhere inside the expansion (both paths coincide, no internal
     nodes), so the containment HOLDS for the Boolean queries... *)
  expect "boolean single implies duplicates" true "x -[a+]-> y"
    "x -[a+]-> y, x -[a+]-> y";
  (* ...but pinning the endpoints with free variables forces the two
     paths across the whole expansion, which a single long path cannot
     provide *)
  expect "pinned single does not imply duplicates" false
    "Q(x, y) :- x -[a+]-> y" "Q(x, y) :- x -[a+]-> y, x -[a+]-> y";
  expect "pinned duplicates refl" true
    "Q(x, y) :- x -[a+]-> y, x -[a+]-> y"
    "Q(x, y) :- x -[a+]-> y, x -[a+]-> y"

let test_eps_cases () =
  expect "a* in a*" true "x -[a*]-> y" "x -[a*]-> y";
  expect "a* in a?|aa*" true "x -[a*]-> y" "x -[a?|aa*]-> y";
  expect "eps only" true "x -[%]-> y" "x -[a*]-> y"

let test_stats () =
  let _, stats =
    Containment_qinj.decide_with_stats (Crpq.parse "x -[a+]-> y")
      (Crpq.parse "x -[a*]-> y")
  in
  check Alcotest.bool "some abstractions" true (stats.Containment_qinj.abstractions_checked > 0);
  check Alcotest.bool "some types" true (stats.Containment_qinj.morphism_types > 0)

(* ------------------------------------------------------------------ *)
(* Preprocessing pieces                                                *)
(* ------------------------------------------------------------------ *)

let test_normalize_concat () =
  let q = Crpq.parse "x -[a+]-> y, y -[b]-> z" in
  let n = Containment_qinj.normalize_concat q in
  check Alcotest.int "one atom" 1 (Crpq.size n);
  (* free variables block the concatenation *)
  let qf = Crpq.parse "Q(y) :- x -[a+]-> y, y -[b]-> z" in
  check Alcotest.int "free var kept" 2 (Crpq.size (Containment_qinj.normalize_concat qf));
  (* higher-degree variables stay *)
  let q3 = Crpq.parse "x -[a]-> y, y -[b]-> z, y -[c]-> w" in
  check Alcotest.int "degree 3 kept" 3 (Crpq.size (Containment_qinj.normalize_concat q3))

let prop_normalize_preserves_semantics =
  Testutil.qtest ~count:40 "normalize_concat preserves q-inj evaluation"
    (QCheck2.Gen.pair
       (Testutil.gen_crpq ~max_atoms:3 ~max_vars:3 ())
       (Testutil.gen_graph ~max_nodes:4 ()))
    (fun (q, g) ->
      let n = Containment_qinj.normalize_concat q in
      Eval.eval Semantics.Q_inj q g = Eval.eval Semantics.Q_inj n g)

let prop_remove_letter_word =
  Testutil.qtest ~count:60 "remove_letter_word removes exactly that word"
    QCheck2.Gen.(
      triple (Testutil.gen_regex ~max_depth:2 ()) Testutil.gen_symbol
        (Testutil.gen_word ~max_len:3 ()))
    (fun (r, a, w) ->
      let r = Regex.remove_eps r in
      let r' = Containment_qinj.remove_letter_word r a in
      if w = [ a ] then not (Regex.matches r' w)
      else Regex.matches r' w = Regex.matches r w)

let prop_split_parallel_union =
  Testutil.qtest ~count:40 "split_parallel_letters preserves the expansion space"
    (QCheck2.Gen.pair
       (Testutil.gen_crpq ~max_atoms:2 ~max_vars:2 ())
       (Testutil.gen_graph ~max_nodes:3 ()))
    (fun (q, g) ->
      QCheck2.assume (not (Crpq.has_empty_language q));
      (* the rewrite is defined on ε-free queries (it is applied after
         epsilon elimination inside the decider) *)
      QCheck2.assume
        (List.for_all (fun (a : Crpq.atom) -> not (Regex.nullable a.Crpq.lang)) q.Crpq.atoms);
      let qs = Containment_qinj.split_parallel_letters q in
      let union_eval sem =
        List.sort_uniq compare (List.concat_map (fun p -> Eval.eval sem p g) qs)
      in
      Eval.eval Semantics.Q_inj q g = union_eval Semantics.Q_inj
      && Eval.eval Semantics.St q g = union_eval Semantics.St)

(* ------------------------------------------------------------------ *)
(* The main cross-validation: abstraction algorithm vs bounded oracle  *)
(* ------------------------------------------------------------------ *)

let langs =
  [| "a"; "b"; "ab"; "a+"; "a*"; "(ab)+"; "a|b"; "(a|b)+"; "ab*"; "ba"; "aa";
     "(aa)+"; "a|bb"; "b+"; "ab|ba"; "a?b"; "(ab)*"; "a?" |]

let rand_query rng ~arity =
  let nvars = 2 + Random.State.int rng 2 in
  let vars = Array.init nvars (fun i -> Printf.sprintf "v%d" i) in
  let natoms = 1 + Random.State.int rng 2 in
  let atoms =
    List.init natoms (fun _ ->
        let s = vars.(Random.State.int rng nvars) in
        let t = vars.(Random.State.int rng nvars) in
        Crpq.atom' s langs.(Random.State.int rng (Array.length langs)) t)
  in
  let free = List.init arity (fun i -> vars.(i mod nvars)) in
  Crpq.make ~free atoms

let test_fuzz_vs_oracle () =
  let rng = Random.State.make [| 2024 |] in
  for i = 1 to 120 do
    let arity = Random.State.int rng 2 in
    let q1 = rand_query rng ~arity and q2 = rand_query rng ~arity in
    match Containment_qinj.decide q1 q2 with
    | exception Containment_qinj.Unsupported _ -> ()
    | Containment_qinj.Qinj_contained -> begin
      match Containment.bounded Semantics.Q_inj ~max_len:4 q1 q2 with
      | Containment.Not_contained w ->
        Alcotest.failf "case %d: algorithm says contained, oracle refutes\nQ1=%s\nQ2=%s\nce=%s"
          i (Crpq.to_string q1) (Crpq.to_string q2)
          (Cq.to_string w.Containment.expansion.Expansion.cq)
      | _ -> ()
    end
    | Containment_qinj.Qinj_not_contained e ->
      let g, t = Expansion.to_graph e in
      if Eval.check Semantics.Q_inj q2 g t then
        Alcotest.failf "case %d: returned counterexample does not refute" i
  done

(* ------------------------------------------------------------------ *)
(* Pinned corpus: the decider's verdicts and search-space sizes        *)
(* ------------------------------------------------------------------ *)

(* The paper's q-inj examples, the Theorem 5.1 scaling pairs at sizes
   2-4, and 100 generated contained-biased pairs with 3-4 atoms.  For
   every pair the verdict, the disjunct counts, the number of morphism
   types the search pulled and the number of tracker states explored
   are pinned; on contained
   pairs also the number of abstractions checked.  Witnesses are not
   pinned (the order in which values are discovered may pick another
   one); they must refute the right query by the expansion oracle. *)
let corpus () =
  let p = Crpq.parse in
  let paper =
    [
      ("ex47", Paper_examples.example_47_q1, Paper_examples.example_47_q2);
      ("ex47'", Paper_examples.example_47_q1', Paper_examples.example_47_q2');
      ("sec4 a+/a*", p "Q(x, y) :- x -[a+]-> y", p "Q(x, y) :- x -[a*]-> y");
      ("sec4 a*/a+", p "Q(x, y) :- x -[a*]-> y", p "Q(x, y) :- x -[a+]-> y");
      ("47-style", p "x -[a+]-> y, x -[b]-> y", p "x -[a+]-> y, u -[b]-> v");
      ("pinned dup", p "Q(x, y) :- x -[a+]-> y", p "Q(x, y) :- x -[a+]-> y, x -[a+]-> y");
      ("dup refl", p "Q(x, y) :- x -[f+]-> y, x -[f+]-> y",
        p "Q(x, y) :- x -[f+]-> y, x -[f+]-> y");
      ("loop", p "x -[(ab)+]-> x", p "x -[(a|b)+]-> x");
      ("composition", p "x -[a]-> y, y -[b+]-> z", p "x -[ab+]-> z");
    ]
  in
  let scaling =
    List.concat_map
      (fun (size, pairs) ->
        List.mapi (fun j (q1, q2) -> (Printf.sprintf "scaling %d.%d" size j, q1, q2)) pairs)
      (Suite.qinj_scaling ~seed:13 ~sizes:[ 2; 3; 4 ])
  in
  let rec generated i acc =
    if List.length acc = 100 then List.rev acc
    else begin
      let rng = Random.State.make [| 17; i |] in
      let q1, q2 =
        Qgen.contained_pair ~rng ~labels:[ "a"; "b" ] ~nvars:3 ~natoms:(3 + (i mod 2))
          ~cls:Crpq.Class_crpq ()
      in
      if Suite.precheck q1 && Suite.precheck q2 then
        generated (i + 1) ((Printf.sprintf "gen %d" i, q1, q2) :: acc)
      else generated (i + 1) acc
    end
  in
  paper @ scaling @ generated 0 []

let m_states = Obs.Metrics.counter "qinj.abstraction_states"

(* One pin: [<verdict> <lhs> <rhs> <types> <states> <abstractions>],
   the last only on contained pairs; "U" on an Unsupported cap. *)
let corpus_line (name, q1, q2) =
  let before = Obs.Metrics.counter_value m_states in
  match Containment_qinj.decide_with_stats q1 q2 with
  | exception Containment_qinj.Unsupported _ -> "U"
  | verdict, s ->
    let states = Obs.Metrics.counter_value m_states - before in
    let common =
      Printf.sprintf "%d %d %d %d" s.Containment_qinj.lhs_disjuncts
        s.Containment_qinj.rhs_disjuncts s.Containment_qinj.morphism_types states
    in
    (match verdict with
    | Containment_qinj.Qinj_contained ->
      Printf.sprintf "C %s %d" common s.Containment_qinj.abstractions_checked
    | Containment_qinj.Qinj_not_contained e ->
      let g, t = Expansion.to_graph e in
      if Eval.check_via_expansions Semantics.Q_inj q2 g t then
        Alcotest.failf "%s: the witness does not refute the right query" name;
      "N " ^ common)

let corpus_pins =
  [|
    "C 1 1 2 4 1";
    "N 1 1 42 4";
    "C 1 2 1 2 1";
    "N 2 1 0 0";
    "N 1 1 42 4";
    "N 1 2 1 4";
    "C 2 2 4 10 7";
    "C 1 1 1 3 1";
    "C 1 1 2 4 1";
    "C 1 1 1 4 1";
    "C 2 2 2 9 8";
    "C 2 1 0 0 0";
    "C 4 2 8 12 40";
    "C 1 1 1 7 1";
    "C 7 4 7 16 25";
    "C 4 4 4 12 10";
    "C 12 6 60 29 164";
    "C 6 4 6 12 18";
    "C 4 2 4 8 6";
    "C 8 4 10 9 12";
    "C 4 2 4 10 6";
    "C 10 10 14 15 27";
    "C 2 2 2 4 2";
    "N 4 2 12 9";
    "C 4 4 4 4 4";
    "C 2 2 7 22 24";
    "C 2 2 2 9 4";
    "C 2 2 9 6 12";
    "C 1 1 1 7 2";
    "C 4 2 15 28 38";
    "C 2 2 4 10 8";
    "N 5 1 14 8";
    "C 2 2 3 8 2";
    "C 2 1 7 18 48";
    "C 4 4 28 9 18";
    "N 12 4 32 8";
    "C 4 4 4 7 18";
    "C 8 4 61 18 72";
    "C 2 2 2 8 8";
    "C 16 26 15 14 175";
    "C 2 1 2 24 120";
    "C 4 4 4 13 36";
    "C 2 2 3 7 2";
    "C 4 2 12 14 16";
    "C 4 4 4 11 16";
    "C 8 4 14 9 8";
    "C 8 4 7 7 11";
    "C 2 2 9 12 8";
    "C 1 1 1 11 10";
    "N 8 2 40 20";
    "C 2 2 2 26 156";
    "C 4 4 9 19 882";
    "C 4 4 4 9 12";
    "C 2 1 3 11 4";
    "C 2 1 6 10 3";
    "C 8 2 56 15 64";
    "C 4 4 6 9 10";
    "C 4 4 4 9 8";
    "C 2 2 4 8 4";
    "C 3 2 12 11 4";
    "C 9 4 8 7 8";
    "C 1 1 1 12 12";
    "C 4 4 4 8 9";
    "C 8 8 12 8 32";
    "C 16 4 15 21 43";
    "C 4 4 10 18 40";
    "C 2 2 3 10 12";
    "C 4 6 12 12 24";
    "C 12 4 11 20 41";
    "C 10 4 10 19 38";
    "C 2 3 6 13 32";
    "C 7 7 86 15 30";
    "C 4 4 6 7 9";
    "C 5 5 26 10 8";
    "C 4 4 4 14 54";
    "C 2 2 22 13 9";
    "N 2 1 20 6";
    "C 6 6 18 17 19";
    "C 1 1 2 8 4";
    "C 1 2 1 7 4";
    "C 8 4 7 10 19";
    "C 1 1 2 9 4";
    "C 1 1 1 26 96";
    "C 10 2 10 14 27";
    "C 6 2 6 21 40";
    "C 2 2 2 14 12";
    "C 13 6 106 102 640";
    "N 5 2 8 10";
    "C 4 4 15 14 50";
    "C 2 2 2 14 12";
    "C 2 2 2 8 4";
    "C 3 4 4 23 16";
    "C 12 4 11 15 23";
    "C 2 2 6 16 60";
    "C 1 1 1 4 1";
    "C 10 14 75 16 48";
    "C 2 2 2 10 6";
    "C 9 8 9 8 27";
    "C 2 2 3 8 4";
    "C 4 2 8 12 6";
    "N 4 1 20 7";
    "C 9 8 164 30 63";
    "C 1 1 1 6 9";
    "C 4 4 7 13 18";
    "C 4 4 4 8 8";
    "C 8 8 116 10 64";
    "C 1 1 1 8 3";
    "C 5 6 18 26 56";
    "C 2 1 5 7 24";
    "C 1 1 1 11 2";
    "C 1 1 2 13 8";
    "C 14 14 17 19 56";
    "C 8 2 7 10 19";
    "C 2 2 17 11 16";
    "C 1 1 1 9 2";
    "C 12 4 12 14 28";
    "C 8 8 7 4 7";
    "C 2 2 6 12 14";
  |]

(* The optimizer pre-pass (INJCRPQ_OPTIMIZE=on) would run nested
   containment decisions inside the counterexample re-check and tick the
   pinned counter, so the corpus pins the decider without it. *)
let test_corpus () =
  Obs.Metrics.set_enabled true;
  Eval.set_preprocessor (fun _ q -> q);
  Fun.protect ~finally:Testutil.install_env_preprocessor (fun () ->
      let pairs = Array.of_list (corpus ()) in
      check Alcotest.int "corpus size" (Array.length corpus_pins) (Array.length pairs);
      Array.iteri
        (fun i ((name, q1, q2) as pair) ->
          check Alcotest.string
            (Printf.sprintf "%s: %s <= %s" name (Crpq.to_string q1) (Crpq.to_string q2))
            corpus_pins.(i) (corpus_line pair))
        pairs)

(* The tracker runs once per language in a decision: a left query that
   repeats one language across two atoms explores as many states as the
   one-atom query. *)
let test_language_tracked_once () =
  Obs.Metrics.set_enabled true;
  let states q1 =
    let before = Obs.Metrics.counter_value m_states in
    (match decide q1 "x -[(a|b)+]-> y" with
    | Containment_qinj.Qinj_contained -> ()
    | Containment_qinj.Qinj_not_contained _ -> Alcotest.failf "%s: not contained" q1);
    Obs.Metrics.counter_value m_states - before
  in
  let one = states "x -[(ab)+]-> y" in
  check Alcotest.bool "one atom explores states" true (one > 0);
  check Alcotest.int "two atoms, one language" one
    (states "x -[(ab)+]-> y, y -[(ab)+]-> z")

let m_evals = Obs.Metrics.counter "eval.evaluations"

(* [certify_union] stops at the abstraction with no compatible type: on
   a refuted pair it evaluates nothing, where [decide_union] builds the
   counterexample and re-verifies it. *)
let test_certify_union () =
  Obs.Metrics.set_enabled true;
  let lhs = [ Crpq.parse "x -[a+]-> y, x -[b]-> y" ]
  and rhs = [ Crpq.parse "x -[a+]-> y, u -[b]-> v" ] in
  let evaluations f =
    let before = Obs.Metrics.counter_value m_evals in
    let r = f () in
    (r, Obs.Metrics.counter_value m_evals - before)
  in
  let certified, n = evaluations (fun () -> Containment_qinj.certify_union lhs rhs) in
  check Alcotest.bool "47-style not certified" false certified;
  check Alcotest.int "certify_union evaluates nothing" 0 n;
  let verdict, n = evaluations (fun () -> Containment_qinj.decide_union lhs rhs) in
  (match verdict with
  | Containment_qinj.Qinj_not_contained _ -> ()
  | Containment_qinj.Qinj_contained ->
    Alcotest.fail "47-style: decide_union says contained");
  check Alcotest.bool "decide_union re-verifies" true (n > 0)

(* Compatibility is monotone in a value's bits, so the decider searches
   the product of the minimal values only.  Against the full search it
   reaches the same verdict, pulls the same morphism types and checks
   no more abstractions; its witness may come from another refuting
   abstraction, but it refutes the right query. *)
let agrees_with_full_search q1 q2 (r, s) (r', s') =
  let fail what =
    Alcotest.failf "%s: %s <= %s" what (Crpq.to_string q1) (Crpq.to_string q2)
  in
  if s.Containment_qinj.morphism_types <> s'.Containment_qinj.morphism_types then
    fail "morphism types differ";
  if s.Containment_qinj.abstractions_checked > s'.Containment_qinj.abstractions_checked
  then fail "more abstractions checked";
  match r, r' with
  | Containment_qinj.Qinj_contained, Containment_qinj.Qinj_contained -> ()
  | Containment_qinj.Qinj_not_contained e, Containment_qinj.Qinj_not_contained _ ->
    if not (Containment.is_counterexample Semantics.Q_inj q2 e) then
      fail "witness does not refute the right query"
  | _ -> fail "verdicts differ"

let prop_minimal_first =
  Testutil.qtest ~count:60 "minimal values first: the full search's verdict and types"
    QCheck2.Gen.(pair (int_bound 1_000_000) bool)
    (fun (seed, biased) ->
      let rng = Random.State.make [| 31; seed |] in
      let labels = [ "a"; "b" ] in
      let q1, q2 =
        if biased then
          Qgen.contained_pair ~rng ~labels ~nvars:3 ~natoms:3 ~cls:Crpq.Class_crpq ()
        else
          let q () =
            Qgen.random_crpq ~rng ~labels ~nvars:3 ~natoms:2 ~arity:0
              ~cls:Crpq.Class_crpq ()
          in
          let q1 = q () in
          (q1, q ())
      in
      QCheck2.assume (Suite.precheck q1 && Suite.precheck q2);
      let run f = try Ok (f q1 q2) with Containment_qinj.Unsupported m -> Error m in
      match
        (run Containment_qinj.decide_with_stats, run Containment_qinj.decide_full_search)
      with
      | Error _, Error _ -> true
      | Ok a, Ok b ->
        agrees_with_full_search q1 q2 a b;
        true
      | _ ->
        Alcotest.failf "only one search is unsupported: %s <= %s" (Crpq.to_string q1)
          (Crpq.to_string q2))

(* The pruned tracker skips a state when a known one is below it.  Per
   left-atom language, its ⊆-minimal values are the exhaustive
   tracker's, with the same witnesses and in the same order, and every
   value it finds is one the exhaustive tracker finds. *)
let minimal_tracker_values vs =
  let subset u v =
    let rec go i = i = Array.length u || (u.(i) land lnot v.(i) = 0 && go (i + 1)) in
    go 0
  in
  List.filter (fun (v, _) -> not (List.exists (fun (u, _) -> u <> v && subset u v) vs)) vs

let prop_pruned_tracker =
  Testutil.qtest ~count:400 "pruned tracker: the exhaustive tracker's minimal values"
    QCheck2.Gen.(pair (int_bound 1_000_000) bool)
    (fun (seed, biased) ->
      let rng = Random.State.make [| 37; seed |] in
      let labels = [ "a"; "b"; "c" ] in
      let q1, q2 =
        if biased then
          Qgen.contained_pair ~rng ~labels ~nvars:3 ~natoms:3 ~cls:Crpq.Class_crpq ()
        else
          let q () =
            Qgen.random_crpq ~rng ~labels ~nvars:3 ~natoms:2 ~arity:0
              ~cls:Crpq.Class_crpq ()
          in
          let q1 = q () in
          (q1, q ())
      in
      QCheck2.assume (Suite.precheck q1 && Suite.precheck q2);
      match Containment_qinj.tracker_values ~prune:false q1 q2 with
      | exception Containment_qinj.Unsupported _ -> true
      | exhaustive ->
        let pruned = Containment_qinj.tracker_values ~prune:true q1 q2 in
        List.length pruned = List.length exhaustive
        && List.for_all2
             (fun (lang, all) (lang', some) ->
               lang = lang'
               && List.for_all (fun (v, _) -> List.mem_assoc v all) some
               && minimal_tracker_values some = minimal_tracker_values all)
             exhaustive pruned)

(* Pairs on which the first refuting abstraction of minimal values
   gives another counterexample than the first of the full product. *)
let test_minimal_first_witness () =
  List.iter
    (fun (q1, q2) ->
      let q1 = Crpq.parse q1 and q2 = Crpq.parse q2 in
      check Alcotest.bool
        (Crpq.to_string q1 ^ " <= " ^ Crpq.to_string q2 ^ ": not certified")
        false
        (Containment_qinj.certify_union [ q1 ] [ q2 ]);
      agrees_with_full_search q1 q2
        (Containment_qinj.decide_with_stats q1 q2)
        (Containment_qinj.decide_full_search q1 q2))
    [
      ( "Q() :- v1 -[(b|a)?]-> v0, v1 -[(b|a)?]-> v1, v2 -[a]-> v0, \
         v2 -[(a|b)(a|b)]-> v1",
        "Q() :- v1 -[(b|a)?]-> v1, v2 -[a]-> v0, v2 -[(a|b)(a|b)]-> v1" );
      ( "Q() :- v0 -[a?a]-> v1, v2 -[(a|b)(b|a)]-> v2, v2 -[b?]-> v1",
        "Q() :- v0 -[a?a|a]-> v1, v2 -[(a|b)(b|a)]-> v2" );
      ( "Q() :- v1 -[(a|b)?]-> v2, v2 -[(a|b)(ba)]-> v2, v2 -[a|b]-> v1",
        "Q() :- v2 -[((a|b)(ba))+]-> v2, v2 -[(a|b)+]-> v1" );
    ]

(* ------------------------------------------------------------------ *)
(* Word boundaries of the packed rows                                  *)
(* ------------------------------------------------------------------ *)

(* A row of A_Q2 states spans several native ints once A_Q2 has more
   states than an int has data bits (63 on 64-bit platforms, whose bit
   62 is the sign bit).  The right atoms over a^k give a completed A_Q2
   of k + 3 states: k in 59..62 straddles the first word boundary, k >=
   124 the second.  Every verdict is checked against the expansion
   search, which is exact on a finite left query. *)
let test_word_boundaries () =
  let a k = String.concat "" (List.init k (fun _ -> "a")) in
  let cases k =
    let p fmt = Printf.ksprintf Crpq.parse fmt in
    let paths =
      [
        (true, p "Q(x, y) :- x -[%s]-> y" (a k), p "Q(x, y) :- x -[%s]-> y" (a k));
        (false, p "Q(x, y) :- x -[%s]-> y" (a (k + 1)), p "Q(x, y) :- x -[%s]-> y" (a k));
        ( true,
          p "Q(x, z) :- x -[%s]-> y, y -[%s]-> z" (a 30) (a (k - 30)),
          p "Q(x, z) :- x -[%s]-> z" (a k) );
        ( false,
          p "Q(x, z) :- x -[%s]-> y, y -[%s]-> z" (a 30) (a (k - 29)),
          p "Q(x, z) :- x -[%s]-> z" (a k) );
        (true, p "x -[%sb]-> y" (a k), p "x -[%s(a|b)]-> y" (a (k - 1)));
        (true, p "Q(x, y) :- x -[%sa*]-> y" (a k), p "Q(x, y) :- x -[%sa+]-> y" (a (k - 1)));
        (false, p "Q(x, y) :- x -[%sa*]-> y" (a (k - 1)), p "Q(x, y) :- x -[%sa*]-> y" (a k));
      ]
    in
    (* a λ-variable at state j of the right atom *)
    let lambdas =
      List.concat_map
        (fun j ->
          [
            ( true,
              p "Q(x, z) :- x -[%s]-> y, y -[%s]-> z" (a j) (a (k - j)),
              p "Q(x, z) :- x -[%s]-> z" (a k) );
            ( false,
              p "Q(x, z) :- x -[%s]-> y, y -[%s]-> z" (a j) (a (k - j + 1)),
              p "Q(x, z) :- x -[%s]-> z" (a k) );
          ])
        (List.filter (fun j -> j < k) [ 61; 62; 63 ])
    in
    (* Boolean right queries embed anywhere (infix and gap relations);
       evaluating them on long paths is slow, so only below 100 *)
    let boolean =
      [
        (true, p "x -[%s]-> y" (a (k + 5)), p "u -[%s]-> v" (a k));
        (false, p "x -[%s]-> y" (a (k - 1)), p "u -[%s]-> v" (a k));
        (* the second right atom's states start at k - 1 *)
        (true, p "x -[%scbb]-> y" (a (k - 2)), p "u -[%s]-> v, w -[bb]-> t" (a (k - 2)));
        (false, p "x -[%sbb]-> y" (a (k - 2)), p "u -[%s]-> v, w -[bb]-> t" (a (k - 2)));
        (false, p "x -[%scbb]-> y" (a (k - 3)), p "u -[%s]-> v, w -[bb]-> t" (a (k - 2)));
      ]
    in
    paths @ lambdas @ if k < 100 then boolean else []
  in
  List.iter
    (fun k ->
      List.iteri
        (fun i (expected, q1, q2) ->
          let name = Printf.sprintf "k=%d case %d" k i in
          let verdict, s = Containment_qinj.decide_with_stats q1 q2 in
          check Alcotest.bool name expected (verdict = Containment_qinj.Qinj_contained);
          let n = s.Containment_qinj.aq2_states in
          if not (if k < 100 then n >= 62 && n <= 66 else n >= 127) then
            Alcotest.failf "%s: A_Q2 has %d states" name n;
          let oracle =
            if Crpq.classify q1 = Crpq.Class_crpq then
              Containment.bounded Semantics.Q_inj ~max_len:(k + 3) q1 q2
            else Containment.finite_lhs Semantics.Q_inj q1 q2
          in
          match verdict, oracle with
          | Containment_qinj.Qinj_contained, Containment.Not_contained _ ->
            Alcotest.failf "%s: contained, but the expansion search refutes it" name
          | Containment_qinj.Qinj_not_contained _, (Containment.Contained | Containment.Unknown _) ->
            Alcotest.failf "%s: not contained, but the expansion search finds no witness" name
          | Containment_qinj.Qinj_contained, (Containment.Contained | Containment.Unknown _)
          | Containment_qinj.Qinj_not_contained _, Containment.Not_contained _ -> ())
        (cases k))
    [ 59; 60; 61; 62; 124; 126 ]

let () =
  Alcotest.run "containment_qinj"
    [
      ( "unit",
        [
          Alcotest.test_case "single atom" `Quick test_single_atom_cases;
          Alcotest.test_case "multi atom" `Quick test_multi_atom_cases;
          Alcotest.test_case "self loops and duplicates" `Quick
            test_self_loops_and_duplicates;
          Alcotest.test_case "free variables" `Quick test_free_variable_cases;
          Alcotest.test_case "epsilon" `Quick test_eps_cases;
          Alcotest.test_case "stats" `Quick test_stats;
          Alcotest.test_case "normalize_concat" `Quick test_normalize_concat;
          Alcotest.test_case "fuzz vs oracle" `Slow test_fuzz_vs_oracle;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "pinned verdicts and sizes" `Quick test_corpus;
          Alcotest.test_case "word boundaries" `Quick test_word_boundaries;
          Alcotest.test_case "one tracker run per language" `Quick
            test_language_tracked_once;
          Alcotest.test_case "certify without a witness" `Quick test_certify_union;
          Alcotest.test_case "minimal values first, valid witness" `Quick
            test_minimal_first_witness;
        ] );
      ( "properties",
        [
          prop_minimal_first;
          prop_pruned_tracker;
          prop_normalize_preserves_semantics;
          prop_remove_letter_word;
          prop_split_parallel_union;
        ] );
    ]
