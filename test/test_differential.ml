(* Differential test suite for the memoization + multicore layer.

   Every decider must be a pure function of its inputs: switching the
   memo tables off (Cache.set_enabled) or fanning the expansion search
   across several domains (Parmap) must never change a verdict, a
   witness, or an answer set.  Each property below draws a random
   workload from lib/workload, runs the decider under four
   configurations — {cached, uncached} x {1 domain, 2 domains} — and
   requires the exact same result as the uncached sequential reference. *)

let labels = [ "a"; "b" ]

(* ---------------- configurations ---------------- *)

type config = { cname : string; cached : bool; jobs : int }

let reference = { cname = "uncached/seq"; cached = false; jobs = 1 }

let variants =
  [
    { cname = "cached/seq"; cached = true; jobs = 1 };
    { cname = "uncached/par2"; cached = false; jobs = 2 };
    { cname = "cached/par2"; cached = true; jobs = 2 };
  ]

let with_config c f =
  Cache.clear_all ();
  Cache.set_enabled c.cached;
  Parmap.set_default_jobs c.jobs;
  Fun.protect
    ~finally:(fun () ->
      Parmap.set_default_jobs 1;
      Cache.set_enabled true;
      Cache.clear_all ())
    f

(* Run [run] under the reference configuration and every variant; fail
   with a replayable report as soon as one representation differs. *)
let agree ~pp_instance ~repr run =
  let expect = repr (with_config reference run) in
  List.for_all
    (fun c ->
      let got = repr (with_config c run) in
      if String.equal got expect then true
      else
        QCheck2.Test.fail_reportf
          "configuration %s diverges from %s on %s@.reference: %s@.got: %s"
          c.cname reference.cname (pp_instance ()) expect got)
    variants

(* ---------------- workloads from lib/workload ---------------- *)

(* qcheck generates an integer seed; the actual instance is drawn from
   lib/workload's generators with a state derived from that seed, so a
   shrunk counterexample is a single replayable integer. *)
let gen_seed = QCheck2.Gen.(int_bound 0x3FFFFFF)

let rng_of seed salt = Random.State.make [| 0x5EED; salt; seed |]

let pick_sem rng choices =
  List.nth choices (Random.State.int rng (List.length choices))

let crpq_pair_of seed =
  let rng = rng_of seed 1 in
  let sem = pick_sem rng Semantics.node_semantics in
  let cls = if Random.State.bool rng then Crpq.Class_fin else Crpq.Class_crpq in
  let pair =
    if Random.State.bool rng then
      Qgen.contained_pair ~rng ~labels ~nvars:3 ~natoms:2 ~cls ()
    else begin
      let q () =
        Qgen.random_crpq ~rng ~labels ~nvars:3 ~natoms:2 ~arity:0 ~cls ()
      in
      let q1 = q () in
      (q1, q ())
    end
  in
  (sem, pair)

let verdict_repr v = Format.asprintf "%a" Containment.pp_verdict v

let test_containment =
  Testutil.qtest ~count:200 "Containment.decide: cache/domains invariant"
    gen_seed (fun seed ->
      let sem, (q1, q2) = crpq_pair_of seed in
      agree
        ~pp_instance:(fun () ->
          Printf.sprintf "[%s] %s vs %s" (Semantics.to_string sem)
            (Crpq.to_string q1) (Crpq.to_string q2))
        ~repr:verdict_repr
        (fun () -> Containment.decide ~bound:2 sem q1 q2))

let ucrpq_pair_of seed =
  let rng = rng_of seed 2 in
  let sem = pick_sem rng Semantics.node_semantics in
  let union () =
    let disjunct () =
      let cls =
        if Random.State.bool rng then Crpq.Class_fin else Crpq.Class_crpq
      in
      Qgen.random_crpq ~rng ~labels ~nvars:3 ~natoms:2 ~arity:0 ~cls ()
    in
    Ucrpq.make [ disjunct (); disjunct () ]
  in
  (sem, union (), union ())

let test_ucrpq =
  Testutil.qtest ~count:200 "Ucrpq.contained: cache/domains invariant"
    gen_seed (fun seed ->
      let sem, u1, u2 = ucrpq_pair_of seed in
      agree
        ~pp_instance:(fun () ->
          Printf.sprintf "[%s] %s vs %s" (Semantics.to_string sem)
            (Ucrpq.to_string u1) (Ucrpq.to_string u2))
        ~repr:verdict_repr
        (fun () -> Ucrpq.contained ~bound:2 sem u1 u2))

let answers_repr rows =
  rows
  |> List.map (fun tuple -> String.concat "," (List.map string_of_int tuple))
  |> String.concat ";"

let eval_instance_of seed =
  let rng = rng_of seed 3 in
  let sem = pick_sem rng Semantics.all in
  let arity = Random.State.int rng 2 in
  let q =
    Qgen.random_crpq ~rng ~labels ~nvars:3 ~natoms:2 ~arity
      ~cls:Crpq.Class_crpq ()
  in
  let g = Generate.gnp ~rng ~nodes:4 ~labels ~p:0.25 in
  (sem, q, g)

let test_eval =
  Testutil.qtest ~count:200 "Eval.eval: cache/domains invariant" gen_seed
    (fun seed ->
      let sem, q, g = eval_instance_of seed in
      agree
        ~pp_instance:(fun () ->
          Printf.sprintf "[%s] %s on %s" (Semantics.to_string sem)
            (Crpq.to_string q)
            (Format.asprintf "%a" Graph.pp g))
        ~repr:answers_repr
        (fun () -> Eval.eval sem q g))

(* ---------------- the certified optimizer ---------------- *)

(* Optimized queries must be observationally identical to the originals:
   same answer sets under Eval, compatible verdicts under the
   containment deciders (an exact verdict may not flip; Unknown may
   resolve, since rewriting can only make the instance easier).  Each
   property also re-runs the optimized decider under every
   cache/domains configuration. *)

(* bias towards rewritable queries: finite languages keep the
   certificate decider exact, and a duplicated atom gives the drop-atom
   pass something to prove (or, under q-inj, to refuse) *)
let optimizable_crpq rng ~arity =
  let q =
    Qgen.random_crpq ~rng ~labels ~nvars:3 ~natoms:2 ~arity ~cls:Crpq.Class_fin ()
  in
  if Random.State.bool rng then
    match q.Crpq.atoms with
    | a :: _ -> Crpq.make ~free:q.Crpq.free (a :: q.Crpq.atoms)
    | [] -> q
  else q

let optimize_eval_instance_of seed =
  let rng = rng_of seed 4 in
  let sem = pick_sem rng Semantics.node_semantics in
  let q = optimizable_crpq rng ~arity:(Random.State.int rng 2) in
  let g = Generate.gnp ~rng ~nodes:4 ~labels ~p:0.3 in
  (sem, q, g)

let test_optimize_eval =
  Testutil.qtest ~count:200 "optimize preserves Eval.eval answer sets" gen_seed
    (fun seed ->
      let sem, q, g = optimize_eval_instance_of seed in
      let q', _ = Analysis.optimize ~sem ~bound:2 q in
      let pp_instance () =
        Printf.sprintf "[%s] %s ~> %s on %s" (Semantics.to_string sem)
          (Crpq.to_string q) (Crpq.to_string q')
          (Format.asprintf "%a" Graph.pp g)
      in
      let baseline = answers_repr (with_config reference (fun () -> Eval.eval sem q g)) in
      let optimized =
        answers_repr (with_config reference (fun () -> Eval.eval sem q' g))
      in
      if not (String.equal baseline optimized) then
        QCheck2.Test.fail_reportf
          "optimized answers diverge on %s@.original:  %s@.optimized: %s"
          (pp_instance ()) baseline optimized
      else
        agree ~pp_instance ~repr:answers_repr (fun () -> Eval.eval sem q' g))

(* exact verdicts must agree; Unknown may only appear on, or resolve
   from, the original *)
let verdicts_compatible ~original ~optimized =
  match Containment.verdict_bool original, Containment.verdict_bool optimized with
  | Some a, Some b -> a = b
  | None, _ | _, None -> true

let optimize_pair_of seed =
  let rng = rng_of seed 5 in
  let sem = pick_sem rng Semantics.node_semantics in
  let q1 = optimizable_crpq rng ~arity:0 in
  let q2 =
    if Random.State.bool rng then
      Qgen.random_crpq ~rng ~labels ~nvars:3 ~natoms:2 ~arity:0
        ~cls:Crpq.Class_fin ()
    else optimizable_crpq rng ~arity:0
  in
  (sem, q1, q2)

let test_optimize_containment =
  Testutil.qtest ~count:200 "optimize preserves Containment.decide verdicts"
    gen_seed (fun seed ->
      let sem, q1, q2 = optimize_pair_of seed in
      let q1', _ = Analysis.optimize ~sem ~bound:2 q1 in
      let q2', _ = Analysis.optimize ~sem ~bound:2 q2 in
      let pp_instance () =
        Printf.sprintf "[%s] %s vs %s (optimized: %s vs %s)"
          (Semantics.to_string sem) (Crpq.to_string q1) (Crpq.to_string q2)
          (Crpq.to_string q1') (Crpq.to_string q2')
      in
      let original =
        with_config reference (fun () -> Containment.decide ~bound:2 sem q1 q2)
      in
      let optimized =
        with_config reference (fun () -> Containment.decide ~bound:2 sem q1' q2')
      in
      if not (verdicts_compatible ~original ~optimized) then
        QCheck2.Test.fail_reportf
          "optimized verdict flips on %s@.original:  %s@.optimized: %s"
          (pp_instance ()) (verdict_repr original) (verdict_repr optimized)
      else
        agree ~pp_instance ~repr:verdict_repr (fun () ->
            Containment.decide ~bound:2 sem q1' q2'))

let optimize_ucrpq_pair_of seed =
  let rng = rng_of seed 6 in
  let sem = pick_sem rng Semantics.node_semantics in
  let union () = Ucrpq.make [ optimizable_crpq rng ~arity:0; optimizable_crpq rng ~arity:0 ] in
  (sem, union (), union ())

let test_optimize_ucrpq =
  Testutil.qtest ~count:200 "optimize preserves Ucrpq.contained verdicts"
    gen_seed (fun seed ->
      let sem, u1, u2 = optimize_ucrpq_pair_of seed in
      let u1', _ = Analysis.optimize_ucrpq ~sem ~bound:2 u1 in
      let u2', _ = Analysis.optimize_ucrpq ~sem ~bound:2 u2 in
      let pp_instance () =
        Printf.sprintf "[%s] %s vs %s (optimized: %s vs %s)"
          (Semantics.to_string sem) (Ucrpq.to_string u1) (Ucrpq.to_string u2)
          (Ucrpq.to_string u1') (Ucrpq.to_string u2')
      in
      let original =
        with_config reference (fun () -> Ucrpq.contained ~bound:2 sem u1 u2)
      in
      let optimized =
        with_config reference (fun () -> Ucrpq.contained ~bound:2 sem u1' u2')
      in
      if not (verdicts_compatible ~original ~optimized) then
        QCheck2.Test.fail_reportf
          "optimized verdict flips on %s@.original:  %s@.optimized: %s"
          (pp_instance ()) (verdict_repr original) (verdict_repr optimized)
      else
        agree ~pp_instance ~repr:verdict_repr (fun () ->
            Ucrpq.contained ~bound:2 sem u1' u2'))

(* ---------------- cache unit tests ---------------- *)

let test_lru_eviction () =
  let module L = Lru.Make (struct
    type t = int

    let equal = Int.equal
    let hash = Hashtbl.hash
  end) in
  let l = L.create ~cap:2 in
  ignore (L.add l 1 "one");
  ignore (L.add l 2 "two");
  (* touch 1 so 2 becomes the cold end *)
  Alcotest.(check (option string)) "find promotes" (Some "one") (L.find_opt l 1);
  let evicted = L.add l 3 "three" in
  Alcotest.(check int) "one eviction" 1 evicted;
  Alcotest.(check (option string)) "cold entry evicted" None (L.find_opt l 2);
  Alcotest.(check (option string)) "hot entry kept" (Some "one")
    (L.find_opt l 1);
  Alcotest.(check (option string)) "new entry present" (Some "three")
    (L.find_opt l 3);
  Alcotest.(check int) "length at cap" 2 (L.length l)

let test_parmap_determinism () =
  let xs = List.init 100 (fun i -> i) in
  Alcotest.(check (list int))
    "map is order-preserving" (List.map succ xs)
    (Parmap.map ~jobs:4 succ xs);
  let f _ x = if x >= 50 then Some x else None in
  (match Parmap.find_mapi ~jobs:4 f xs with
  | Some (i, v) ->
    Alcotest.(check int) "lowest matching index" 50 i;
    Alcotest.(check int) "its value" 50 v
  | None -> Alcotest.fail "find_mapi missed a match");
  Alcotest.(check (option (pair int int)))
    "no match" None
    (Parmap.find_mapi ~jobs:4 (fun _ _ -> None) xs)

let test_parmap_exception () =
  match Parmap.map ~jobs:3 (fun x -> if x = 7 then failwith "boom" else x)
          (List.init 20 (fun i -> i))
  with
  | _ -> Alcotest.fail "worker exception was swallowed"
  | exception Failure msg -> Alcotest.(check string) "re-raised" "boom" msg

let test_cache_hit_counters () =
  let hits = Obs.Metrics.counter "cache.nfa.of_regex.hits" in
  let was_enabled = Obs.Metrics.enabled () in
  Obs.Metrics.set_enabled true;
  Cache.clear_all ();
  Cache.set_enabled true;
  let before = Obs.Metrics.counter_value hits in
  let re = Regex.seq (Regex.sym "a") (Regex.star (Regex.sym "b")) in
  let n1 = Nfa.of_regex re in
  let n2 = Nfa.of_regex (Regex.seq (Regex.sym "a") (Regex.star (Regex.sym "b"))) in
  Obs.Metrics.set_enabled was_enabled;
  Cache.clear_all ();
  (* while chaos injection is armed the memo layer bypasses itself, so the
     hit counter legitimately stays flat and the two runs return equal
     but distinct automata *)
  if Guard.Chaos.active () then
    Alcotest.(check bool) "same automaton" true (n1 = n2)
  else begin
    Alcotest.(check bool)
      "memoized construction ticks the hit counter" true
      (Obs.Metrics.counter_value hits > before);
    Alcotest.(check bool) "one shared automaton" true (n1 == n2)
  end

let test_cache_off_recomputes () =
  Cache.clear_all ();
  Cache.set_enabled false;
  let re = Regex.star (Regex.alt (Regex.sym "a") (Regex.sym "b")) in
  let n1 = Nfa.of_regex re in
  let n2 = Nfa.of_regex re in
  Cache.set_enabled true;
  (* distinct values, but structurally the same automaton *)
  Alcotest.(check bool) "uncached runs agree structurally" true (n1 = n2)

let () =
  Alcotest.run "differential"
    [
      ( "deciders",
        [ test_containment; test_ucrpq; test_eval ] );
      ( "optimize",
        [ test_optimize_eval; test_optimize_containment; test_optimize_ucrpq ] );
      ( "cache-units",
        [
          Alcotest.test_case "lru eviction order" `Quick test_lru_eviction;
          Alcotest.test_case "parmap determinism" `Quick
            test_parmap_determinism;
          Alcotest.test_case "parmap exception propagation" `Quick
            test_parmap_exception;
          Alcotest.test_case "cache hit counters" `Quick
            test_cache_hit_counters;
          Alcotest.test_case "cache off recomputes" `Quick
            test_cache_off_recomputes;
        ] );
    ]
