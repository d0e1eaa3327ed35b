(* Benchmark harness: regenerates every table and figure of the paper
   (experiments E1-E11 of DESIGN.md).  Each experiment prints a table in
   the shape of the paper artefact together with measured behaviour; a
   final Bechamel section reports statistically robust timings for the
   core operations.  Run with --quick for smaller workloads, or pass
   experiment ids (e.g. "fig1 thm52") to run a subset.

   Every experiment runs under a Guard deadline (--deadline-ms, default
   5 minutes) and records an outcome (ok | timeout | error); the results
   file is rewritten after each experiment, so a crash or timeout in
   experiment k never loses experiments 1..k-1. *)

let quick = ref false

let selected : string list ref = ref []

let deadline_ms = ref 300_000

let output_file = ref "BENCH_results.json"

let compare_file : string option ref = ref None

(* regression tolerance on deterministic work counters, percent *)
let tolerance = ref 30.0

(* wall-clock tolerance, percent; 0 = report-only (cross-machine noise
   must not fail a gate by default) *)
let wall_tolerance = ref 0.0

let profile_out : string option ref = ref None

let chrome_out : string option ref = ref None

let want name = !selected = [] || List.mem name !selected

let section name title =
  Format.printf "@.======================================================================@.";
  Format.printf "%s — %s@." name title;
  Format.printf "======================================================================@."

(* The single timing helper: every measurement in this harness goes
   through the Obs monotonic clock (CLOCK_MONOTONIC, installed in main),
   so timings cannot be skewed by wall-clock adjustments. *)
let time_it f =
  let t0 = Obs.Clock.now_ns () in
  let r = f () in
  (r, Obs.Clock.ns_to_s (Int64.sub (Obs.Clock.now_ns ()) t0))

let pp_ms ppf s = Format.fprintf ppf "%7.1fms" (1000.0 *. s)

(* Machine-readable results, written to the output file: one entry per
   experiment run (wall + CPU time, search-counter delta, outcome), plus
   one row per Figure-1 cell. *)
let results : Obs.Json.t list ref = ref []

let fig1_rows : Obs.Json.t list ref = ref []

let morphism_rows : Obs.Json.t list ref = ref []

let optimize_rows : Obs.Json.t list ref = ref []

let serve_rows : Obs.Json.t list ref = ref []

let bulk_rows : Obs.Json.t list ref = ref []

let bulk_scale_rows : Obs.Json.t list ref = ref []

(* Rewritten after every experiment: the file on disk always holds the
   completed prefix of the run, whatever happens to the rest. *)
let write_results () =
  let json =
    Obs.Json.Obj
      [
        ("schema", Obs.Json.String "injcrpq-bench/1");
        ("quick", Obs.Json.Bool !quick);
        ("clock", Obs.Json.String (Obs.Clock.source_name ()));
        ("deadline_ms", Obs.Json.Int !deadline_ms);
        ("jobs", Obs.Json.Int (Parmap.default_jobs ()));
        ("cache", Obs.Json.Bool (Cache.is_enabled ()));
        ("experiments", Obs.Json.List (List.rev !results));
      ]
  in
  let oc = open_out !output_file in
  output_string oc (Obs.Json.to_string json);
  output_char oc '\n';
  close_out oc

(* ------------------------------------------------------------------ *)
(* Regression gate: --compare BASELINE.json                            *)
(* ------------------------------------------------------------------ *)

(* The gate compares deterministic work counters, not wall time: every
   experiment is seeded, so the amount of search work (candidates
   tried, expansions enumerated, checkpoints passed) is reproducible
   across machines, while wall_ns is not.  A counter that grew beyond
   --tolerance percent over a baseline with at least [min_gated_count]
   occurrences fails the gate; wall_ns is reported, and only gated when
   --wall-tolerance is set (same-machine runs). *)

let gated_prefixes =
  [
    "morphism.";
    "containment.";
    "eval.";
    "qinj.";
    "f7.";
    "path_search.";
    "bulk.";
    "nfa.";
    "expansion.";
    "analysis.";
    "guard.checkpoints";
  ]

let min_gated_count = 50

(* bechamel runs as many iterations as fit its time quota, so its work
   counters measure machine speed, not algorithmic work: report, never
   gate.  serve drives a live daemon, where scheduling decides how much
   decider work lands inside the measurement window *)
let ungated_experiments = [ "bechamel"; "serve" ]

let has_prefix p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

(* name -> (outcome, wall_ns, counters) from a bench results document *)
let experiment_index json =
  let experiments =
    Option.bind (Obs.Json.member "experiments" json) Obs.Json.to_list
    |> Option.value ~default:[]
  in
  List.filter_map
    (fun e ->
      match
        ( Obs.Json.member "name" e,
          Obs.Json.member "outcome" e,
          Option.bind (Obs.Json.member "wall_ns" e) Obs.Json.to_int,
          Obs.Json.member "metrics" e )
      with
      | Some (Obs.Json.String name), Some (Obs.Json.String outcome), Some wall, Some metrics ->
        let counters =
          match Obs.Metrics.of_json metrics with
          | Ok snapshot ->
            List.filter_map
              (fun (n, v) ->
                match v with Obs.Metrics.Counter c -> Some (n, c) | _ -> None)
              snapshot
          | Error _ -> []
        in
        Some (name, (outcome, wall, counters))
      | _ -> None)
    experiments

let pct ratio = 100.0 *. (ratio -. 1.0)

let run_compare baseline_file =
  let baseline =
    match open_in baseline_file with
    | exception Sys_error msg ->
      Format.eprintf "bench: cannot open baseline: %s@." msg;
      exit 2
    | ic ->
      let contents = really_input_string ic (in_channel_length ic) in
      close_in ic;
      (match Obs.Json.parse contents with
      | Ok j -> j
      | Error e ->
        Format.eprintf "bench: baseline %s does not parse: %s@." baseline_file e;
        exit 2)
  in
  let shape_mismatch =
    (* a baseline recorded at another size is a shape mismatch, not a
       regression: report and skip the gate rather than failing it *)
    match Obs.Json.member "quick" baseline with
    | Some (Obs.Json.Bool bq) when bq <> !quick ->
      Format.eprintf
        "bench: baseline was recorded with quick=%b but this run has \
         quick=%b; work counters are not comparable — gate skipped@."
        bq !quick;
      true
    | _ -> false
  in
  let base_idx = experiment_index baseline in
  let current =
    experiment_index
      (Obs.Json.Obj [ ("experiments", Obs.Json.List (List.rev !results)) ])
  in
  section "GATE" (Printf.sprintf "regression gate vs %s" baseline_file);
  Format.printf "work-counter tolerance: %.0f%%; wall tolerance: %s@."
    !tolerance
    (if !wall_tolerance > 0.0 then Printf.sprintf "%.0f%%" !wall_tolerance
     else "report-only");
  if shape_mismatch then
    Format.printf "gate: skipped (baseline shape mismatch, see above)@."
  else begin
  let regressions = ref [] in
  let regress fmt = Format.kasprintf (fun s -> regressions := s :: !regressions) fmt in
  let compared = ref 0 in
  List.iter
    (fun (name, (outcome, wall, counters)) ->
      match List.assoc_opt name base_idx with
      | None -> Format.printf "%-12s (not in baseline, skipped)@." name
      | Some (base_outcome, base_wall, base_counters) ->
        let ungated = List.mem name ungated_experiments in
        if not ungated then begin
          incr compared;
          if base_outcome = "ok" && outcome <> "ok" then
            regress "%s: outcome degraded from ok to %s" name outcome
        end;
        let wall_ratio = float_of_int wall /. float_of_int (max 1 base_wall) in
        if (not ungated) && !wall_tolerance > 0.0 && pct wall_ratio > !wall_tolerance
        then
          regress "%s: wall time %+.0f%% (%.1fms -> %.1fms)" name
            (pct wall_ratio)
            (float_of_int base_wall /. 1e6)
            (float_of_int wall /. 1e6);
        let worst = ref ("", 0.0) in
        let gated = ref 0 in
        List.iter
          (fun (cname, base_count) ->
            if
              base_count >= min_gated_count
              && List.exists (fun p -> has_prefix p cname) gated_prefixes
            then
              match List.assoc_opt cname counters with
              | None ->
                (* a counter the baseline had but this run lacks (renamed
                   or removed instrumentation): shape change, not gated *)
                Format.printf
                  "%-12s   counter %s only in baseline, skipped@." name cname
              | Some count ->
                incr gated;
                let ratio = float_of_int count /. float_of_int base_count in
                if fst !worst = "" || ratio > snd !worst then
                  worst := (cname, ratio);
                if (not ungated) && pct ratio > !tolerance then
                  regress "%s: %s %+.0f%% (%d -> %d)" name cname (pct ratio)
                    base_count count)
          base_counters;
        (* counters of this run absent from the baseline: new
           instrumentation has no reference value, so report-only *)
        List.iter
          (fun (cname, count) ->
            if
              count >= min_gated_count
              && List.exists (fun p -> has_prefix p cname) gated_prefixes
              && not (List.mem_assoc cname base_counters)
            then
              Format.printf "%-12s   counter %s new (%d), not in baseline@."
                name cname count)
          counters;
        let worst_txt =
          match !worst with
          | "", _ -> "no gated counters"
          | cname, r ->
            Printf.sprintf "%d gated counter(s), worst %s %+.0f%%" !gated cname
              (pct r)
        in
        Format.printf "%-12s %-8s wall %+6.0f%%  %s%s@." name outcome
          (pct wall_ratio) worst_txt
          (if ungated then "  (ungated: time-quota workload)" else ""))
    current;
  (* experiments the baseline has but this run did not produce (renamed
     family, or a subset run): report-only, never a failure *)
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name current) then
        Format.printf "%-12s (baseline-only, skipped)@." name)
    base_idx;
  if !compared = 0 then
    Format.eprintf
      "bench: no experiment of this run appears in the baseline — nothing \
       was gated@.";
  match List.rev !regressions with
  | [] ->
    Format.printf "@.gate: no regressions across %d experiment(s)@." !compared
  | rs ->
    Format.printf "@.gate: %d regression(s):@." (List.length rs);
    List.iter (fun r -> Format.printf "  REGRESSION %s@." r) rs;
    exit 1
  end

let run_experiment name f =
  let before = Obs.Metrics.snapshot () in
  let cpu0 = Obs.Clock.cpu_ns () in
  let t0 = Obs.Clock.now_ns () in
  let guard = Guard.create ~deadline_ms:!deadline_ms () in
  let outcome =
    (* the bench.<name> checkpoint sits outside any decider boundary, so
       chaos can degrade a whole experiment (crash-safety tests) *)
    match
      Guard.run ~guard (fun () ->
          Guard.checkpoint ("bench." ^ name);
          f ())
    with
    | Ok () -> begin
      match Guard.last_trip guard with
      | Some ({ Guard.reason = Guard.Deadline_exceeded _ | Guard.Fuel_exhausted _; _ } as trip) ->
        (* the deadline elapsed mid-experiment; the deciders absorbed the
           trips and degraded cell by cell *)
        [
          ("outcome", Obs.Json.String "timeout");
          ("detail", Obs.Json.String (Guard.trip_to_string trip));
        ]
      | _ -> [ ("outcome", Obs.Json.String "ok") ]
    end
    | Error trip ->
      Format.printf "@.[%s] stopped: %s@." name (Guard.trip_to_string trip);
      [
        ("outcome", Obs.Json.String "timeout");
        ("detail", Obs.Json.String (Guard.trip_to_string trip));
      ]
    | exception e ->
      Format.printf "@.[%s] failed: %s@." name (Printexc.to_string e);
      [
        ("outcome", Obs.Json.String "error");
        ("detail", Obs.Json.String (Printexc.to_string e));
      ]
  in
  let wall_ns = Int64.to_int (Int64.sub (Obs.Clock.now_ns ()) t0) in
  let cpu_ns = Int64.to_int (Int64.sub (Obs.Clock.cpu_ns ()) cpu0) in
  let delta = Obs.Metrics.diff before (Obs.Metrics.snapshot ()) in
  let fields =
    [
      ("name", Obs.Json.String name);
      ("wall_ns", Obs.Json.Int wall_ns);
      ("cpu_ns", Obs.Json.Int cpu_ns);
      ("metrics", Obs.Metrics.to_json delta);
    ]
    @ outcome
  in
  let fields =
    if String.equal name "fig1" && !fig1_rows <> [] then
      fields @ [ ("cells", Obs.Json.List (List.rev !fig1_rows)) ]
    else if String.equal name "morphism" && !morphism_rows <> [] then
      fields @ [ ("cells", Obs.Json.List (List.rev !morphism_rows)) ]
    else if String.equal name "optimize" && !optimize_rows <> [] then
      fields @ [ ("cells", Obs.Json.List (List.rev !optimize_rows)) ]
    else if String.equal name "serve" && !serve_rows <> [] then
      fields @ [ ("cells", Obs.Json.List (List.rev !serve_rows)) ]
    else if String.equal name "bulk" && !bulk_rows <> [] then
      fields @ [ ("cells", Obs.Json.List (List.rev !bulk_rows)) ]
    else if String.equal name "bulk_scale" && !bulk_scale_rows <> [] then
      fields @ [ ("cells", Obs.Json.List (List.rev !bulk_scale_rows)) ]
    else fields
  in
  results := Obs.Json.Obj fields :: !results;
  write_results ()

(* ------------------------------------------------------------------ *)
(* E1: Figure 1 — the complexity grid, empirically                     *)
(* ------------------------------------------------------------------ *)

let fig1_paper_complexity cell sem =
  match cell, sem with
  | ("CQ/CQ" | "CQ/CRPQfin" | "CQ/CRPQ"), Semantics.St -> "NP-c"
  | ("CQ/CQ" | "CQ/CRPQfin" | "CQ/CRPQ"), Semantics.Q_inj -> "NP-c"
  | "CQ/CQ", Semantics.A_inj -> "NP-c"
  | ("CQ/CRPQfin" | "CQ/CRPQ"), Semantics.A_inj -> "Pi2p-c"
  | ("CRPQfin/CQ" | "CRPQfin/CRPQfin" | "CRPQfin/CRPQ"), _ -> "Pi2p-c"
  | "CRPQ/CQ", _ -> "Pi2p-c"
  | "CRPQ/CRPQfin", Semantics.St -> "PSPACE-c"
  | "CRPQ/CRPQfin", Semantics.Q_inj -> "PSPACE-c"
  | "CRPQ/CRPQfin", Semantics.A_inj -> "undecidable"
  | "CRPQ/CRPQ", Semantics.St -> "ExpSpace-c"
  | "CRPQ/CRPQ", Semantics.Q_inj -> "PSPACE-c"
  | "CRPQ/CRPQ", Semantics.A_inj -> "undecidable"
  | _ -> "?"

let run_fig1 () =
  section "E1" "Figure 1: containment complexity grid (verdicts + decider timing)";
  let per_cell = if !quick then 2 else 4 in
  let cells = Suite.fig1_cells ~seed:42 ~per_cell in
  Format.printf "%-18s %-7s %-12s %-36s %3s %3s %3s %10s@." "cell" "sem"
    "paper" "decider" "C" "N" "?" "time";
  List.iter
    (fun (cell, sem, _, _, pairs) ->
      let contained = ref 0 and not_contained = ref 0 and unknown = ref 0 in
      let timeouts = ref 0 in
      let strategy = ref "" in
      let before = Obs.Metrics.snapshot () in
      let _, dt =
        time_it (fun () ->
            (* the pairs of a cell are independent decider runs: fan them
               across domains under --jobs (order-preserving, so the
               verdict counts cannot change with the job count) *)
            let verdicts =
              Parmap.map
                (fun (q1, q2) ->
                  match Containment.decide ~bound:3 sem q1 q2 with
                  | Containment.Contained -> `C
                  | Containment.Not_contained _ -> `N
                  | Containment.Unknown (Containment.Resource_exhausted _) ->
                    `T
                  | Containment.Unknown _ -> `U
                  | exception _ -> `U)
                pairs
            in
            (match List.rev pairs with
            | (q1, q2) :: _ -> strategy := Containment.strategy_name sem q1 q2
            | [] -> ());
            List.iter
              (function
                | `C -> incr contained
                | `N -> incr not_contained
                | `T ->
                  incr unknown;
                  incr timeouts
                | `U -> incr unknown)
              verdicts)
      in
      let delta = Obs.Metrics.diff before (Obs.Metrics.snapshot ()) in
      fig1_rows :=
        Obs.Json.Obj
          [
            ("cell", Obs.Json.String cell);
            ("sem", Obs.Json.String (Semantics.to_string sem));
            ("paper", Obs.Json.String (fig1_paper_complexity cell sem));
            ("decider", Obs.Json.String !strategy);
            ("contained", Obs.Json.Int !contained);
            ("not_contained", Obs.Json.Int !not_contained);
            ("unknown", Obs.Json.Int !unknown);
            ("timeouts", Obs.Json.Int !timeouts);
            ( "outcome",
              Obs.Json.String (if !timeouts > 0 then "timeout" else "ok") );
            ("wall_ns", Obs.Json.Int (int_of_float (dt *. 1e9)));
            ("metrics", Obs.Metrics.to_json delta);
          ]
        :: !fig1_rows;
      Format.printf "%-18s %-7s %-12s %-36s %3d %3d %3d %a@." cell
        (Semantics.to_string sem)
        (fig1_paper_complexity cell sem)
        !strategy !contained !not_contained !unknown pp_ms dt)
    cells;
  Format.printf
    "@.Shape check: exact deciders (homomorphisms, finite enumeration, regular@.\
     inclusion, Prop F.7 windows, Thm 5.1 abstractions) cover every cell@.\
     except the ones Figure 1 proves PSPACE-or-worse under st with infinite@.\
     right languages or undecidable under a-inj, where bounded search@.\
     reports '?' when exhausted.@."

(* ------------------------------------------------------------------ *)
(* E2: Figure 2 / Example 2.1                                          *)
(* ------------------------------------------------------------------ *)

let run_fig2 () =
  section "E2" "Figure 2 / Example 2.1: the three semantics separate";
  let q = Paper_examples.example_21_query in
  Format.printf "query: %s@.@." (Crpq.to_string q);
  let row name g t =
    Format.printf "%-28s st=%-5b a-inj=%-5b q-inj=%-5b@." name
      (Eval.check Semantics.St q g t)
      (Eval.check Semantics.A_inj q g t)
      (Eval.check Semantics.Q_inj q g t)
  in
  row "G, (u,w)   [paper: T T F]" Paper_examples.example_21_g
    Paper_examples.example_21_g_tuple;
  row "G', (u',v') [paper: T F F]" Paper_examples.example_21_g'
    Paper_examples.example_21_g'_tuple_st;
  row "G', (u,w)  [paper: T T F]" Paper_examples.example_21_g'
    Paper_examples.example_21_g'_tuple_ainj;
  Format.printf "st = a-inj on G (paper: yes): %b@."
    (Eval.eval Semantics.St q Paper_examples.example_21_g
    = Eval.eval Semantics.A_inj q Paper_examples.example_21_g)

(* ------------------------------------------------------------------ *)
(* E3: Remark 2.1 — hierarchy over random instances                    *)
(* ------------------------------------------------------------------ *)

let run_hierarchy () =
  section "E3" "Remark 2.1: q-inj ⊆ a-inj ⊆ st over random instances";
  let n = if !quick then 30 else 120 in
  let rng = Random.State.make [| 5 |] in
  let holds = ref 0 and strict_ai = ref 0 and strict_qi = ref 0 in
  for _ = 1 to n do
    let q =
      Qgen.random_crpq ~rng ~labels:[ "a"; "b" ] ~nvars:3 ~natoms:2 ~arity:1
        ~cls:Crpq.Class_crpq ()
    in
    let g = Generate.gnp ~rng ~nodes:4 ~labels:[ "a"; "b" ] ~p:0.3 in
    let st = Eval.eval Semantics.St q g in
    let ai = Eval.eval Semantics.A_inj q g in
    let qi = Eval.eval Semantics.Q_inj q g in
    let subset l1 l2 = List.for_all (fun x -> List.mem x l2) l1 in
    if subset qi ai && subset ai st then incr holds;
    if List.length ai < List.length st then incr strict_ai;
    if List.length qi < List.length ai then incr strict_qi
  done;
  Format.printf "instances: %d; hierarchy holds: %d (must be all)@." n !holds;
  Format.printf "strict a-inj ⊂ st: %d; strict q-inj ⊂ a-inj: %d@." !strict_ai
    !strict_qi

(* ------------------------------------------------------------------ *)
(* E4: Example 4.7                                                     *)
(* ------------------------------------------------------------------ *)

let run_ex47 () =
  section "E4" "Example 4.7: containment relations are incomparable";
  Format.printf "%-12s %-7s %-9s %-9s@." "pair" "sem" "paper" "measured";
  List.iter
    (fun (name, sem, q1, q2, expected) ->
      let v = Containment.decide sem q1 q2 in
      let measured =
        match Containment.verdict_bool v with
        | Some b -> string_of_bool b
        | None -> "?"
      in
      Format.printf "%-12s %-7s %-9b %-9s@." name (Semantics.to_string sem)
        expected measured)
    Paper_examples.example_47_expectations

(* ------------------------------------------------------------------ *)
(* E5: Section 2.2 expansions                                          *)
(* ------------------------------------------------------------------ *)

let run_expansions () =
  section "E5" "Section 2.2: expansions of the running query";
  Format.printf "E1 (profile ab, ε): %s@."
    (Cq.to_string Paper_examples.example_22_e1.Expansion.cq);
  Format.printf "E2 (profile ab, c): %s@."
    (Cq.to_string Paper_examples.example_22_e2.Expansion.cq);
  let q = Paper_examples.example_21_query in
  List.iter
    (fun len ->
      Format.printf "expansions with atom words ≤ %d: %d@." len
        (List.length (Expansion.expansions ~max_len:len q)))
    [ 2; 4; 6 ]

(* ------------------------------------------------------------------ *)
(* E6: Theorem 5.1 — the abstraction algorithm                          *)
(* ------------------------------------------------------------------ *)

let run_thm51 () =
  section "E6"
    "Theorem 5.1: q-inj containment via abstractions (scaling + agreement)";
  let sizes = if !quick then [ 1; 2 ] else [ 1; 2; 3 ] in
  Format.printf "%-8s %-10s %-12s %-14s %-10s@." "atoms" "verdicts"
    "morph.types" "abstractions" "time";
  List.iter
    (fun (natoms, pairs) ->
      let types = ref 0 and abstractions = ref 0 in
      let verdicts = ref [] in
      let _, dt =
        time_it (fun () ->
            List.iter
              (fun (q1, q2) ->
                match Containment_qinj.decide_with_stats q1 q2 with
                | Containment_qinj.Qinj_contained, st ->
                  types := !types + st.Containment_qinj.morphism_types;
                  abstractions :=
                    !abstractions + st.Containment_qinj.abstractions_checked;
                  verdicts := "C" :: !verdicts
                | Containment_qinj.Qinj_not_contained _, st ->
                  types := !types + st.Containment_qinj.morphism_types;
                  abstractions :=
                    !abstractions + st.Containment_qinj.abstractions_checked;
                  verdicts := "N" :: !verdicts
                | exception Containment_qinj.Unsupported _ ->
                  verdicts := "!" :: !verdicts)
              pairs)
      in
      Format.printf "%-8d %-10s %-12d %-14d %a@." natoms
        (String.concat "" (List.rev !verdicts))
        !types !abstractions pp_ms dt)
    (Suite.qinj_scaling ~seed:13 ~sizes);
  (* agreement with the bounded oracle on a fresh batch *)
  let rng = Random.State.make [| 77 |] in
  let n = if !quick then 15 else 40 in
  let agree = ref 0 and total = ref 0 in
  for _ = 1 to n do
    let q1 =
      Qgen.random_crpq ~rng ~labels:[ "a"; "b" ] ~nvars:3 ~natoms:2 ~arity:0
        ~cls:Crpq.Class_crpq ()
    in
    let q2 =
      Qgen.random_crpq ~rng ~labels:[ "a"; "b" ] ~nvars:3 ~natoms:2 ~arity:0
        ~cls:Crpq.Class_crpq ()
    in
    match Containment_qinj.decide q1 q2 with
    | exception Containment_qinj.Unsupported _ -> ()
    | v -> begin
      incr total;
      match v, Containment.bounded Semantics.Q_inj ~max_len:4 q1 q2 with
      | Containment_qinj.Qinj_contained, (Containment.Unknown _ | Containment.Contained)
      | Containment_qinj.Qinj_not_contained _, _ ->
        (* counterexamples are re-verified internally *)
        incr agree
      | Containment_qinj.Qinj_contained, Containment.Not_contained _ -> ()
    end
  done;
  Format.printf "@.agreement with bounded oracle: %d/%d@." !agree !total

(* ------------------------------------------------------------------ *)
(* E7: Theorem 5.2 — PCP reduction                                     *)
(* ------------------------------------------------------------------ *)

let run_thm52 () =
  section "E7" "Theorem 5.2: PCP ↦ a-inj containment (Figures 4, 5, 11, 12)";
  Format.printf "%-18s %-10s %-12s %-24s %-10s@." "instance" "solvable"
    "candidate" "well-formed F defeats Q2" "time";
  List.iter
    (fun (name, inst, sol) ->
      match sol with
      | Some seq ->
        let (ce, real), dt =
          time_it (fun () -> Pcp_to_ainj.verify_candidate inst seq)
        in
        Format.printf "%-18s %-10b %-12s %-24b %a@." name real
          (String.concat "," (List.map string_of_int seq))
          ce pp_ms dt
      | None ->
        (* no solution: candidate expansions never defeat Q2 *)
        let enc = Pcp_to_ainj.encode inst in
        let any_ce, dt =
          time_it (fun () ->
              List.exists
                (fun seq ->
                  Pcp_to_ainj.is_counterexample enc
                    (Pcp_to_ainj.well_formed_expansion enc seq))
                [ [ 1 ]; [ 1; 1 ] ])
        in
        Format.printf "%-18s %-10b %-12s %-24b %a@." name false "sampled" any_ce
          pp_ms dt)
    Suite.pcp_instances;
  let enc = Pcp_to_ainj.encode Pcp.solvable_small in
  Format.printf "@.ill-formed controls (expected: Q2 maps, i.e. NOT counterexamples):@.";
  Format.printf "  unmerged:   counterexample=%b@."
    (Pcp_to_ainj.is_counterexample enc (Pcp_to_ainj.unmerged_expansion enc [ 1; 2 ]));
  Format.printf "  mismatched: counterexample=%b@."
    (Pcp_to_ainj.is_counterexample enc
       (Pcp_to_ainj.mismatched_expansion enc [ 1; 2 ] [ 2; 1 ]));
  Format.printf "  non-solution candidate: counterexample=%b@."
    (Pcp_to_ainj.is_counterexample enc
       (Pcp_to_ainj.well_formed_expansion enc [ 1; 1 ]));
  Format.printf "  Claim D.3 union simulation agrees: %b@."
    (Pcp_to_ainj.union_agrees enc (Pcp_to_ainj.well_formed_expansion enc [ 1; 2 ]))

(* ------------------------------------------------------------------ *)
(* E8: Theorem 6.1 — GCP₂ reduction                                    *)
(* ------------------------------------------------------------------ *)

let run_thm61 () =
  section "E8" "Theorem 6.1: GCP₂ ↦ q-inj containment (Figure 6)";
  Format.printf "%-10s %-16s %-18s %-10s@." "instance" "GCP2 (brute)"
    "Q1 ⊄ Q2 (queries)" "time";
  List.iter
    (fun (name, inst) ->
      let (via_q, via_b), dt = time_it (fun () -> Gcp_to_qinj.verify inst) in
      Format.printf "%-10s %-16b %-18b %a%s@." name via_b via_q pp_ms dt
        (if via_q = via_b then "" else "   MISMATCH"))
    Suite.gcp_instances

(* ------------------------------------------------------------------ *)
(* E9: Theorem 6.2 — QBF reduction                                     *)
(* ------------------------------------------------------------------ *)

let run_thm62 () =
  section "E9" "Theorem 6.2: ∀∃-QBF ↦ a-inj containment (Figures 7, 13)";
  Format.printf "%-16s %-14s %-18s %-10s@." "instance" "valid (brute)"
    "Q1 ⊆ Q2 (queries)" "time";
  List.iter
    (fun (name, inst) ->
      let (via_q, via_b), dt = time_it (fun () -> Qbf_to_ainj.verify inst) in
      Format.printf "%-16s %-14b %-18b %a%s@." name via_b via_q pp_ms dt
        (if via_q = via_b then "" else "   MISMATCH"))
    (Suite.qbf_instances ~seed:21)

(* ------------------------------------------------------------------ *)
(* E10: Props 3.1/3.2 — evaluation complexity                          *)
(* ------------------------------------------------------------------ *)

let run_eval_bench () =
  section "E10"
    "Props 3.1/3.2: evaluation — standard (poly) vs injective (NP witness search)";
  let sizes = if !quick then [ 6; 10 ] else [ 6; 10; 14; 18 ] in
  let q = Crpq.parse "Q(x, y) :- x -[(aa)+]-> y" in
  Format.printf "lollipop family, query x -[(aa)+]-> y:@.";
  Format.printf "%-8s %-12s %-12s %-12s@." "nodes" "st" "a-inj" "q-inj";
  List.iter
    (fun (n, g) ->
      let t sem = snd (time_it (fun () -> ignore (Eval.eval sem q g))) in
      Format.printf "%-8d %a %a %a@." n pp_ms (t Semantics.St) pp_ms
        (t Semantics.A_inj) pp_ms (t Semantics.Q_inj))
    (Suite.hard_simple_path ~sizes);
  let _, q, graphs = Suite.eval_scaling ~seed:3 ~sizes in
  Format.printf "@.sparse random graphs, query %s:@." (Crpq.to_string q);
  Format.printf "%-8s %-12s %-12s %-12s@." "nodes" "st" "a-inj" "q-inj";
  List.iter
    (fun g ->
      let t sem = snd (time_it (fun () -> ignore (Eval.eval sem q g))) in
      Format.printf "%-8d %a %a %a@." (Graph.nnodes g) pp_ms (t Semantics.St)
        pp_ms (t Semantics.A_inj) pp_ms (t Semantics.Q_inj))
    graphs;
  (* Wikidata-flavoured property-path queries (the paper's §1 motivation) *)
  let entities = if !quick then 15 else 30 in
  let kg, queries = Suite.knowledge_graph ~seed:8 ~entities in
  Format.printf "@.knowledge graph (%d entities, %d facts):@." (Graph.nnodes kg)
    (Graph.nedges kg);
  Format.printf "%-30s %8s %12s %12s %12s@." "query" "answers" "st" "a-inj"
    "q-inj";
  List.iter
    (fun (name, q) ->
      let t sem = snd (time_it (fun () -> ignore (Eval.eval sem q kg))) in
      let answers = List.length (Eval.eval Semantics.St q kg) in
      Format.printf "%-30s %8d %a %a %a@." name answers pp_ms (t Semantics.St)
        pp_ms (t Semantics.A_inj) pp_ms (t Semantics.Q_inj))
    queries;
  (* the subgraph-isomorphism lower-bound family (Prop 3.1) *)
  let rng = Random.State.make [| 9 |] in
  let n = if !quick then 10 else 25 in
  let ok = ref 0 in
  for _ = 1 to n do
    let q = Qgen.random_cq ~rng ~labels:[ "a" ] ~nvars:3 ~natoms:3 ~arity:0 () in
    let g = Generate.gnp ~rng ~nodes:4 ~labels:[ "a" ] ~p:0.4 in
    let s, qi, ai = Subiso_to_eval.verify q g in
    if s = qi && qi = ai then incr ok
  done;
  Format.printf "@.Prop 3.1 equivalences (subiso = q-inj = saturated a-inj): %d/%d@."
    !ok n

(* ------------------------------------------------------------------ *)
(* E11: Section 7 — trail semantics                                    *)
(* ------------------------------------------------------------------ *)

let run_trails () =
  section "E11" "Section 7: trail (edge-injective) semantics";
  let g =
    Graph.make ~nnodes:4 [ (0, "a", 1); (1, "a", 2); (2, "a", 1); (1, "a", 3) ]
  in
  let q = Crpq.parse "Q(x, y) :- x -[aaaa]-> y" in
  Format.printf "figure-eight graph, x -[aaaa]-> y, tuple (0,3):@.";
  List.iter
    (fun sem ->
      Format.printf "  %-12s %b@." (Semantics.to_string sem)
        (Eval.check sem q g [ 0; 3 ]))
    [ Semantics.St; Semantics.A_edge_inj; Semantics.A_inj ];
  let rng = Random.State.make [| 31 |] in
  let n = if !quick then 20 else 80 in
  let holds = ref 0 and node_stricter = ref 0 in
  for _ = 1 to n do
    let q =
      Qgen.random_crpq ~rng ~labels:[ "a"; "b" ] ~nvars:3 ~natoms:2 ~arity:1
        ~cls:Crpq.Class_crpq ()
    in
    let g = Generate.gnp ~rng ~nodes:4 ~labels:[ "a"; "b" ] ~p:0.35 in
    let subset l1 l2 = List.for_all (fun x -> List.mem x l2) l1 in
    let ai = Eval.eval Semantics.A_inj q g in
    let ae = Eval.eval Semantics.A_edge_inj q g in
    let qi = Eval.eval Semantics.Q_inj q g in
    let qe = Eval.eval Semantics.Q_edge_inj q g in
    let st = Eval.eval Semantics.St q g in
    if subset qe ae && subset ae st && subset qi qe && subset ai ae then incr holds;
    if List.length ai < List.length ae then incr node_stricter
  done;
  Format.printf "@.random instances: %d; edge hierarchy holds: %d; node ⊊ edge: %d@."
    n !holds !node_stricter

(* ------------------------------------------------------------------ *)
(* E12: ablations — design choices measured                            *)
(* ------------------------------------------------------------------ *)

let run_ablations () =
  section "E12" "Ablations: abstraction vs bounded search; direct vs expansion eval";
  (* (a) the Theorem 5.1 algorithm vs the naive bounded search on
     CONTAINED pairs: the bounded search can never prove these, and its
     cost explodes with the bound, while the abstraction algorithm is
     exact and fast *)
  let pairs =
    [
      ("a+ ⊆ a*", "x -[a+]-> y", "x -[a*]-> y");
      ("(ab)+ ⊆ (a|b)+", "x -[(ab)+]-> y", "x -[(a|b)+]-> y");
      ("chain ⊆ concat", "x -[a]-> y, y -[b+]-> z", "x -[ab+]-> z");
    ]
  in
  Format.printf "%-18s %-14s %-14s %-14s %-14s@." "pair" "abstraction"
    "bounded(3)" "bounded(5)" "bounded(7)";
  List.iter
    (fun (name, s1, s2) ->
      let q1 = Crpq.parse s1 and q2 = Crpq.parse s2 in
      let t_abs =
        snd (time_it (fun () -> ignore (Containment_qinj.decide q1 q2)))
      in
      let t_bound b =
        snd
          (time_it (fun () ->
               ignore (Containment.bounded Semantics.Q_inj ~max_len:b q1 q2)))
      in
      Format.printf "%-18s %a (exact) %a %a %a (all '?')@." name pp_ms t_abs
        pp_ms (t_bound 3) pp_ms (t_bound 5) pp_ms (t_bound 7))
    pairs;
  (* (b) direct evaluators vs the expansion-based reference (Props
     2.2/2.3): the direct engines avoid materializing the expansion
     space *)
  let q = Paper_examples.example_21_query in
  let g = Paper_examples.example_21_g' in
  Format.printf "@.%-10s %-14s %-18s@." "semantics" "direct" "via expansions";
  List.iter
    (fun sem ->
      let tuple = Paper_examples.example_21_g'_tuple_st in
      let t_direct = snd (time_it (fun () -> ignore (Eval.check sem q g tuple))) in
      let t_exp =
        snd (time_it (fun () -> ignore (Eval.check_via_expansions sem q g tuple)))
      in
      Format.printf "%-10s %a %a@." (Semantics.to_string sem) pp_ms t_direct
        pp_ms t_exp)
    Semantics.node_semantics

(* ------------------------------------------------------------------ *)
(* E13: morphism engine — the NP witness search, isolated              *)
(* ------------------------------------------------------------------ *)

(* Every Figure-1 NP cell bottoms out in [Morphism]: finding a (possibly
   injective) homomorphism from an expansion into a graph (Props 2.2,
   2.3, 4.2).  This family scales pattern size × target size × the four
   injectivity regimes and records candidates-tried / backtracks per
   row, so solver regressions (or improvements) are a measured artefact
   rather than a claim.  Workloads are seeded per row: the counter
   series is comparable across solver generations. *)

let run_morphism () =
  section "E13" "Morphism engine: witness-search scaling (candidates / backtracks)";
  let labels = [ "a"; "b" ] in
  let pattern_of kind np seed =
    let word n = List.init n (fun i -> if i mod 2 = 0 then "a" else "b") in
    match kind with
    | "path" -> Generate.line (word (np - 1))
    | "cycle" -> Generate.cycle (word np)
    | "random" ->
      let rng = Random.State.make [| 0xBEEF; np; seed |] in
      Generate.gnp ~rng ~nodes:np ~labels ~p:0.35
    | _ -> assert false
  in
  let target_of nt =
    (* sparse: expected per-label out-degree ~3, independent of nt *)
    let rng = Random.State.make [| 0xCAFE; nt |] in
    Generate.gnp ~rng ~nodes:nt ~labels ~p:(3.0 /. float_of_int nt)
  in
  let m_cand = Obs.Metrics.counter "morphism.candidates_tried" in
  let m_back = Obs.Metrics.counter "morphism.backtracks" in
  let modes pattern =
    [
      ("hom", fun target -> Morphism.count ~pattern ~target ());
      ("inj", fun target -> Morphism.count ~injective:true ~pattern ~target ());
      ( "noncontract",
        fun target ->
          let distinct_pairs =
            List.filter_map
              (fun (u, _, v) -> if u <> v then Some (u, v) else None)
              (Graph.edges pattern)
          in
          Morphism.count ~distinct_pairs ~pattern ~target () );
      ( "edge-inj",
        fun target ->
          Morphism.count
            ~distinct_edge_groups:[ Graph.edges pattern ]
            ~pattern ~target () );
    ]
  in
  let kinds = [ "path"; "cycle"; "random" ] in
  let sizes =
    if !quick then [ (4, 16); (4, 32); (6, 32) ]
    else [ (4, 32); (6, 64); (8, 128) ]
  in
  Format.printf "%-8s %-4s %-5s %-12s %10s %12s %12s %10s@." "pattern" "np"
    "nt" "mode" "solutions" "candidates" "backtracks" "time";
  let total_cand = ref 0 and total_back = ref 0 in
  List.iter
    (fun kind ->
      List.iter
        (fun (np, nt) ->
          let pattern = pattern_of kind np 1 in
          let target = target_of nt in
          List.iter
            (fun (mode, count) ->
              let c0 = Obs.Metrics.counter_value m_cand in
              let b0 = Obs.Metrics.counter_value m_back in
              let solutions, dt = time_it (fun () -> count target) in
              let cand = Obs.Metrics.counter_value m_cand - c0 in
              let back = Obs.Metrics.counter_value m_back - b0 in
              total_cand := !total_cand + cand;
              total_back := !total_back + back;
              morphism_rows :=
                Obs.Json.Obj
                  [
                    ("pattern", Obs.Json.String kind);
                    ("np", Obs.Json.Int np);
                    ("nt", Obs.Json.Int nt);
                    ("mode", Obs.Json.String mode);
                    ("solutions", Obs.Json.Int solutions);
                    ("candidates", Obs.Json.Int cand);
                    ("backtracks", Obs.Json.Int back);
                    ("wall_ns", Obs.Json.Int (int_of_float (dt *. 1e9)));
                  ]
                :: !morphism_rows;
              Format.printf "%-8s %-4d %-5d %-12s %10d %12d %12d %a@." kind np
                nt mode solutions cand back pp_ms dt)
            (modes pattern))
        sizes)
    kinds;
  Format.printf "@.total: candidates=%d backtracks=%d@." !total_cand !total_back

(* ------------------------------------------------------------------ *)
(* E16: bulk bit-matrix engine vs pointwise product BFS                 *)
(* ------------------------------------------------------------------ *)

(* Every cell computes the full standard-semantics atom relation two
   ways — pointwise Path_search and bulk multiple-source frontier BFS —
   and checks the relations cell-for-cell before timing is reported, so
   the bench doubles as a large-graph differential test.  The crossover
   claim CI asserts: on the largest cell (≥ 10⁵ edges) the bulk engine
   must beat the pointwise BFS. *)
let run_bulk () =
  Format.printf
    "@.E16: bulk bit-matrix RPQ engine vs pointwise product BFS@.@.";
  let m_sweeps = Obs.Metrics.counter "bulk.sweeps" in
  let m_frontier = Obs.Metrics.counter "bulk.frontier_bits" in
  let m_words = Obs.Metrics.counter "bulk.words_anded" in
  let cells = Suite.e16_cells ~seed:16 ~quick:!quick in
  Format.printf "%-14s %6s %8s %4s %10s %10s %8s %6s@." "cell" "nodes"
    "edges" "nfa" "pointwise" "multi-src" "speedup" "agree";
  List.iter
    (fun (name, g, re) ->
      let nfa = Nfa.of_regex re in
      let n = Graph.nnodes g in
      let m = nfa.Nfa.nstates in
      let rel_ps, t_ps = time_it (fun () -> Path_search.reach_relation g nfa) in
      let s0 = Obs.Metrics.counter_value m_sweeps in
      let f0 = Obs.Metrics.counter_value m_frontier in
      let w0 = Obs.Metrics.counter_value m_words in
      let rel_ms, t_ms = time_it (fun () -> Bulk_rpq.reach_relation g nfa) in
      let sweeps = Obs.Metrics.counter_value m_sweeps - s0 in
      let frontier = Obs.Metrics.counter_value m_frontier - f0 in
      let words = Obs.Metrics.counter_value m_words - w0 in
      let agree = rel_ms = rel_ps in
      let pairs =
        Array.fold_left
          (fun acc row ->
            Array.fold_left (fun a b -> if b then a + 1 else a) acc row)
          0 rel_ms
      in
      let speedup = if t_ms > 0.0 then t_ps /. t_ms else 0.0 in
      Format.printf "%-14s %6d %8d %4d %a %a %7.1fx %6b@." name n
        (Graph.nedges g) m pp_ms t_ps pp_ms t_ms speedup agree;
      bulk_rows :=
        Obs.Json.Obj
          [
            ("cell", Obs.Json.String name);
            ("nodes", Obs.Json.Int n);
            ("edges", Obs.Json.Int (Graph.nedges g));
            ("nfa_states", Obs.Json.Int m);
            ("pointwise_ns", Obs.Json.Int (int_of_float (t_ps *. 1e9)));
            ("multi_source_ns", Obs.Json.Int (int_of_float (t_ms *. 1e9)));
            ("rel_pairs", Obs.Json.Int pairs);
            ("sweeps", Obs.Json.Int sweeps);
            ("frontier_bits", Obs.Json.Int frontier);
            ("words_anded", Obs.Json.Int words);
            ("agree", Obs.Json.Bool agree);
          ]
        :: !bulk_rows;
      if not agree then
        failwith (Printf.sprintf "bulk relation diverges on cell %s" name))
    cells

(* ------------------------------------------------------------------ *)
(* E17: tiled sparse engine on ≥ 5·10⁵-edge graphs                      *)
(* ------------------------------------------------------------------ *)

(* Past the dense-matrix wall: every cell samples a fixed source set,
   answers single-source reachability pointwise (one product BFS per
   source, all on one searcher, which clears only the states it
   visited) and in bulk ([Bulk_rpq.reach_pairs] — tiled, hybrid
   sparse/dense sweeps), and checks the answer sets source-for-source
   before any timing is reported.  Each row records the sweep-mode
   split, the tile geometry and the measured peak tile working set, so
   CI can assert (a) the largest cell runs sparse sweeps and wins, and
   (b) peak memory stays within the O(B·n) tile bound.  A final
   deciders row runs containment decisions with the engine forced on
   and reports the bulk.dispatch.containment.* delta — the proof that
   the expansion-side checks consume bulk relations. *)
let run_bulk_scale () =
  section "E17" "Tiled sparse bulk engine on large graphs";
  let m_sweeps = Obs.Metrics.counter "bulk.sweeps" in
  let m_sparse = Obs.Metrics.counter "bulk.sweep_sparse" in
  let m_dense = Obs.Metrics.counter "bulk.sweep_dense" in
  let m_tiles = Obs.Metrics.counter "bulk.tiles" in
  let m_scattered = Obs.Metrics.counter "bulk.bits_scattered" in
  let cells = Suite.e17_cells ~seed:17 ~quick:!quick in
  Format.printf "%-20s %7s %8s %4s %10s %10s %8s %6s %6s %6s %6s@." "cell"
    "nodes" "edges" "nfa" "pointwise" "bulk" "speedup" "swp(s)" "swp(d)"
    "tiles" "agree";
  List.iter
    (fun (name, re, build) ->
      let g, srcs = build () in
      let nfa = Nfa.of_regex re in
      let n = Graph.nnodes g in
      let m = nfa.Nfa.nstates in
      let pw, t_pw =
        time_it (fun () ->
            let s = Path_search.simple_searcher g nfa in
            Array.map
              (fun src ->
                let acc = ref [] in
                Path_search.reachable_with s ~src (fun v -> acc := v :: !acc);
                List.sort compare !acc)
              srcs)
      in
      Bulk_rpq.reset_peak_tile_words ();
      let s0 = Obs.Metrics.counter_value m_sweeps in
      let sp0 = Obs.Metrics.counter_value m_sparse in
      let d0 = Obs.Metrics.counter_value m_dense in
      let ti0 = Obs.Metrics.counter_value m_tiles in
      let sc0 = Obs.Metrics.counter_value m_scattered in
      let pairs, t_bulk = time_it (fun () -> Bulk_rpq.reach_pairs g nfa srcs) in
      let sweeps = Obs.Metrics.counter_value m_sweeps - s0 in
      let sparse = Obs.Metrics.counter_value m_sparse - sp0 in
      let dense = Obs.Metrics.counter_value m_dense - d0 in
      let tiles = Obs.Metrics.counter_value m_tiles - ti0 in
      let scattered = Obs.Metrics.counter_value m_scattered - sc0 in
      let peak = Bulk_rpq.peak_tile_words () in
      let block = Bulk_rpq.block_rows ~nstates:m ~nnodes:n in
      let agree = ref true in
      Array.iteri
        (fun i expected ->
          let got = ref [] in
          Bitmatrix.iter_row pairs i (fun v -> got := v :: !got);
          if List.rev !got <> expected then agree := false)
        pw;
      let reached = Bitmatrix.popcount pairs in
      let speedup = if t_bulk > 0.0 then t_pw /. t_bulk else 0.0 in
      Format.printf "%-20s %7d %8d %4d %a %a %7.1fx %6d %6d %6d %6b@." name n
        (Graph.nedges g) m pp_ms t_pw pp_ms t_bulk speedup sparse dense tiles
        !agree;
      bulk_scale_rows :=
        Obs.Json.Obj
          [
            ("cell", Obs.Json.String name);
            ("nodes", Obs.Json.Int n);
            ("edges", Obs.Json.Int (Graph.nedges g));
            ("nfa_states", Obs.Json.Int m);
            ("sources", Obs.Json.Int (Array.length srcs));
            ("pointwise_ns", Obs.Json.Int (int_of_float (t_pw *. 1e9)));
            ("bulk_ns", Obs.Json.Int (int_of_float (t_bulk *. 1e9)));
            ("reached_pairs", Obs.Json.Int reached);
            ("sweeps", Obs.Json.Int sweeps);
            ("sweep_sparse", Obs.Json.Int sparse);
            ("sweep_dense", Obs.Json.Int dense);
            ("tiles", Obs.Json.Int tiles);
            ("bits_scattered", Obs.Json.Int scattered);
            ("block_rows", Obs.Json.Int block);
            ("peak_tile_words", Obs.Json.Int peak);
            ("agree", Obs.Json.Bool !agree);
          ]
        :: !bulk_scale_rows;
      if not !agree then
        failwith (Printf.sprintf "bulk reach_pairs diverges on cell %s" name))
    cells;
  (* Deciders row: the expansion-side atom relations of the containment
     deciders must reach the bulk engine (caller attribution). *)
  let with_mode m f =
    let prev = Bulk_rpq.current_mode () in
    Bulk_rpq.set_mode m;
    Fun.protect ~finally:(fun () -> Bulk_rpq.set_mode prev) f
  in
  let dispatch_total () =
    List.fold_left
      (fun acc engine ->
        acc
        + Obs.Metrics.counter_value
            (Obs.Metrics.counter ("bulk.dispatch.containment." ^ engine)))
      0
      [ "pointwise"; "multi_source" ]
  in
  let pairs =
    [
      ( "Q(x, z) :- x -[a+]-> y, y -[b+]-> z",
        "Q(x, z) :- x -[b+]-> y, y -[(a|b)+]-> z" );
      ( "Q(x, z) :- x -[a+]-> y, y -[b+]-> z",
        "Q(x, z) :- x -[a+]-> y, y -[(a|b)+]-> z" );
      ( "Q(x, y) :- x -[(ab)+]-> y, x -[a+]-> z",
        "Q(x, y) :- x -[(a|b)+]-> y, x -[(a|b)+]-> z" );
    ]
  in
  let d0 = dispatch_total () in
  let verdicts, t_dec =
    time_it (fun () ->
        with_mode Bulk_rpq.On (fun () ->
            List.map
              (fun (s1, s2) ->
                Containment.decide Semantics.St (Crpq.parse s1) (Crpq.parse s2))
              pairs))
  in
  let bulk_relations = dispatch_total () - d0 in
  Format.printf
    "@.deciders: %d St containment decisions, %d expansion-side bulk \
     relations (bulk.dispatch.containment.*), %a@."
    (List.length verdicts) bulk_relations pp_ms t_dec;
  bulk_scale_rows :=
    Obs.Json.Obj
      [
        ("cell", Obs.Json.String "deciders");
        ("decisions", Obs.Json.Int (List.length verdicts));
        ("bulk_relations", Obs.Json.Int bulk_relations);
        ("wall_ns", Obs.Json.Int (int_of_float (t_dec *. 1e9)));
      ]
    :: !bulk_scale_rows;
  if bulk_relations = 0 then
    failwith "containment deciders consumed no bulk relations"

(* ------------------------------------------------------------------ *)
(* E14: the certified optimizer — shrinkage, certificate cost, payoff   *)
(* ------------------------------------------------------------------ *)

(* Four query families exercise the rewrite engine's behaviours:
   redundant atoms that St-containment certifies away (and their cost
   as the redundancy count grows), the q-inj soundness guard that must
   refuse the same-looking drop, the unsatisfiable collapse, and the
   ε-merge.  Each row records the shrinkage, the certificate-check
   count and cost, and the before/after evaluation time on a random
   graph — the "payoff" column that justifies running the pre-pass. *)

let run_optimize () =
  section "E14"
    "Certified optimizer: shrinkage, certificate cost, evaluation payoff";
  let m_checked = Obs.Metrics.counter "analysis.certificates_checked" in
  let implied = [| "x -[a|b]-> y"; "x -[a|b|c]-> y"; "x -[a|c]-> y" |] in
  let redundant_st k =
    let atoms =
      "x -[a]-> y, y -[b]-> z"
      :: List.init k (fun i -> implied.(i mod Array.length implied))
    in
    Crpq.parse ("Q(x, z) :- " ^ String.concat ", " atoms)
  in
  let families =
    let ks = if !quick then [ 1; 2 ] else [ 1; 2; 3 ] in
    List.map
      (fun k ->
        (Printf.sprintf "redundant-st/%d" k, Semantics.St, redundant_st k))
      ks
    @ [
        ( "duplicate-qinj",
          Semantics.Q_inj,
          Crpq.parse "Q(x, y) :- x -[aa]-> y, x -[aa]-> y" );
        ( "unsat-collapse",
          Semantics.St,
          Crpq.parse "Q(x) :- x -[!]-> y, y -[a]-> z, z -[b]-> x" );
        ( "eps-merge",
          Semantics.St,
          Crpq.parse "Q(x) :- x -[%]-> y, y -[a]-> z, z -[%]-> w" );
      ]
  in
  let rng = Random.State.make [| 0xF14 |] in
  let nodes = if !quick then 8 else 12 in
  let g = Generate.gnp ~rng ~nodes ~labels:[ "a"; "b"; "c" ] ~p:0.3 in
  Format.printf "%-16s %-6s %6s %6s %4s %4s %6s %10s %10s %10s@." "family"
    "sem" "atoms" "after" "tw" "tw'" "certs" "cert-time" "eval" "eval'";
  List.iter
    (fun (name, sem, q) ->
      let c0 = Obs.Metrics.counter_value m_checked in
      let (q', report), t_opt = time_it (fun () -> Analysis.optimize ~sem q) in
      let certs = Obs.Metrics.counter_value m_checked - c0 in
      let _, t_before = time_it (fun () -> ignore (Eval.eval sem q g)) in
      let _, t_after = time_it (fun () -> ignore (Eval.eval sem q' g)) in
      let tw s = s.Query_shape.width in
      let before = report.Analysis.shape_before
      and after = report.Analysis.shape_after in
      optimize_rows :=
        Obs.Json.Obj
          [
            ("family", Obs.Json.String name);
            ("sem", Obs.Json.String (Semantics.to_string sem));
            ("atoms_before", Obs.Json.Int before.Query_shape.atoms);
            ("atoms_after", Obs.Json.Int after.Query_shape.atoms);
            ( "atoms_removed",
              Obs.Json.Int (Rewrite.removed_atoms report.Analysis.rewrite) );
            ("treewidth_before", Obs.Json.Int (tw before));
            ("treewidth_after", Obs.Json.Int (tw after));
            ("certificates_checked", Obs.Json.Int certs);
            ("optimize_wall_ns", Obs.Json.Int (int_of_float (t_opt *. 1e9)));
            ("eval_before_wall_ns", Obs.Json.Int (int_of_float (t_before *. 1e9)));
            ("eval_after_wall_ns", Obs.Json.Int (int_of_float (t_after *. 1e9)));
          ]
        :: !optimize_rows;
      Format.printf "%-16s %-6s %6d %6d %4d %4d %6d %a %a %a@." name
        (Semantics.to_string sem) before.Query_shape.atoms
        after.Query_shape.atoms (tw before) (tw after) certs pp_ms t_opt pp_ms
        t_before pp_ms t_after)
    families;
  Format.printf
    "@.Soundness check rows: duplicate-qinj must NOT shrink (the Thm 5.1@.\
     certificate refutes the drop); every other family must.@."

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                           *)
(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* E15: serve — daemon throughput and latency over a socketpair        *)
(* ------------------------------------------------------------------ *)

(* The daemon runs in-process on its own domains, driven over one end
   of a socketpair with a window of pipelined requests; the client
   records per-request latency (send to response) and computes exact
   percentiles, so this measures the full serving path: frame parse,
   admission, queue, worker guard/retry, response write. *)
let run_serve () =
  section "E15"
    "serve daemon: pipelined eval/contain mix over a socketpair (p50/p99)";
  let g = Paper_examples.example_21_g' in
  let cfg =
    Serve.Server.config ~workers:2 ~queue_bound:64 ~timeout_ms:10_000
      ~graphs:[ ("default", g) ] ()
  in
  let srv = Serve.Server.create cfg in
  let sfd, cfd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let server = Domain.spawn (fun () -> Serve.Server.run srv ~adopt:[ sfd ] ()) in
  let client = Serve.Client.of_fd cfd in
  (match Serve.Client.greeting ~timeout_ms:10_000 client with
  | Ok _ -> ()
  | Error e -> failwith ("serve bench: no greeting: " ^ e));
  let n = if !quick then 200 else 1000 in
  let window = 16 in
  let op_of i = if i mod 5 = 3 then "contain" else "eval" in
  let request_of i =
    match op_of i with
    | "contain" ->
      Serve.Protocol.request ~id:(Obs.Json.Int i) ~sem:Semantics.Q_inj
        ~lhs:"Q(x, y) :- x -[ab]-> y" ~rhs:"Q(x, y) :- x -[(ab)+]-> y"
        Serve.Protocol.Contain
    | _ ->
      Serve.Protocol.request ~id:(Obs.Json.Int i)
        ~sem:(match i mod 3 with 0 -> Semantics.St | 1 -> Semantics.A_inj | _ -> Semantics.Q_inj)
        ~query:"Q(x, y) :- x -[(ab)*]-> y, y -[c*]-> x" Serve.Protocol.Eval
  in
  let sent_ns = Array.make n 0L in
  let lat_us = Array.make n 0 in
  let statuses = Hashtbl.create 4 in
  let next = ref 0 in
  let send_one () =
    let i = !next in
    sent_ns.(i) <- Obs.Clock.now_ns ();
    (match Serve.Client.send client (request_of i) with
    | Ok () -> ()
    | Error e -> failwith ("serve bench: send: " ^ e));
    incr next
  in
  let recv_one () =
    match Serve.Client.recv ~timeout_ms:30_000 client with
    | Error e -> failwith ("serve bench: recv: " ^ e)
    | Ok resp ->
      let st = Serve.Protocol.status_to_string resp.Serve.Protocol.status in
      Hashtbl.replace statuses st
        (1 + Option.value (Hashtbl.find_opt statuses st) ~default:0);
      (match resp.Serve.Protocol.id with
      | Obs.Json.Int i when i >= 0 && i < n ->
        lat_us.(i) <-
          Int64.to_int (Int64.sub (Obs.Clock.now_ns ()) sent_ns.(i)) / 1000
      | _ -> failwith "serve bench: response with unexpected id")
  in
  let _, total_s =
    time_it (fun () ->
        while !next < min window n do
          send_one ()
        done;
        let received = ref 0 in
        while !received < n do
          recv_one ();
          incr received;
          if !next < n then send_one ()
        done)
  in
  Serve.Server.shutdown srv;
  Domain.join server;
  Serve.Client.close client;
  let throughput = float_of_int n /. total_s in
  let percentile sorted q =
    let m = Array.length sorted in
    sorted.(min (m - 1) (int_of_float (Float.ceil (q *. float_of_int m)) - 1))
  in
  let row name (lats : int array) =
    if Array.length lats > 0 then begin
      let sorted = Array.copy lats in
      Array.sort compare sorted;
      let p50 = percentile sorted 0.50 and p99 = percentile sorted 0.99 in
      Format.printf "%-10s %6d req  p50 %7.2fms  p99 %7.2fms@." name
        (Array.length lats)
        (float_of_int p50 /. 1000.0)
        (float_of_int p99 /. 1000.0);
      serve_rows :=
        Obs.Json.Obj
          [
            ("op", Obs.Json.String name);
            ("requests", Obs.Json.Int (Array.length lats));
            ("p50_us", Obs.Json.Int p50);
            ("p99_us", Obs.Json.Int p99);
          ]
        :: !serve_rows
    end
  in
  Format.printf "%d requests, window %d, 2 workers: %.0f req/s in %.2fs@." n
    window throughput total_s;
  let of_op op =
    Array.of_list
      (List.filteri (fun i _ -> op_of i = op) (Array.to_list lat_us))
  in
  row "eval" (of_op "eval");
  row "contain" (of_op "contain");
  row "all" lat_us;
  serve_rows :=
    Obs.Json.Obj
      [
        ("op", Obs.Json.String "throughput");
        ("requests", Obs.Json.Int n);
        ("window", Obs.Json.Int window);
        ("requests_per_s", Obs.Json.Float throughput);
        ( "statuses",
          Obs.Json.Obj
            (Hashtbl.fold
               (fun st c acc -> (st, Obs.Json.Int c) :: acc)
               statuses []) );
      ]
    :: !serve_rows;
  Format.printf "statuses: %s@."
    (String.concat ", "
       (Hashtbl.fold
          (fun st c acc -> Printf.sprintf "%s=%d" st c :: acc)
          statuses []))

let bechamel_section () =
  section "BECH" "Bechamel micro-benchmarks (OLS ns/run estimates)";
  let open Bechamel in
  let open Toolkit in
  let g = Paper_examples.example_21_g' in
  let q = Paper_examples.example_21_query in
  let q47 = Paper_examples.example_47_expectations in
  let qinj_q1 = Crpq.parse "x -[(ab)+]-> y, y -[a+]-> z" in
  let qinj_q2 = Crpq.parse "x -[(a|b)+]-> z, x -[(ab)+]-> y" in
  let tests =
    [
      Test.make ~name:"eval/st" (Staged.stage (fun () -> Eval.eval Semantics.St q g));
      Test.make ~name:"eval/a-inj"
        (Staged.stage (fun () -> Eval.eval Semantics.A_inj q g));
      Test.make ~name:"eval/q-inj"
        (Staged.stage (fun () -> Eval.eval Semantics.Q_inj q g));
      Test.make ~name:"eval/a-edge-inj"
        (Staged.stage (fun () -> Eval.eval Semantics.A_edge_inj q g));
      Test.make ~name:"containment/ex47"
        (Staged.stage (fun () ->
             List.iter
               (fun (_, sem, q1, q2, _) -> ignore (Containment.decide sem q1 q2))
               q47));
      Test.make ~name:"containment/qinj-abstraction"
        (Staged.stage (fun () -> ignore (Containment_qinj.decide qinj_q1 qinj_q2)));
      Test.make ~name:"rpq/simple-path"
        (Staged.stage (fun () ->
             ignore (Rpq.eval_simple_path (Regex.parse "(ab)*") g)));
      Test.make ~name:"nfa/of_regex"
        (Staged.stage (fun () -> Nfa.of_regex (Regex.parse "((a|b)c*(ab)+)*")));
    ]
  in
  let quota = if !quick then 0.25 else 0.5 in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~kde:None () in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  Format.printf "%-32s %14s %8s@." "benchmark" "ns/run" "r²";
  List.iter
    (fun test ->
      let results = Benchmark.all cfg Instance.[ monotonic_clock ] test in
      let analyzed = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name ols_result ->
          let est =
            match Analyze.OLS.estimates ols_result with
            | Some (e :: _) -> Printf.sprintf "%14.0f" e
            | _ -> "           n/a"
          in
          let r2 =
            match Analyze.OLS.r_square ols_result with
            | Some r -> Printf.sprintf "%8.4f" r
            | None -> "     n/a"
          in
          Format.printf "%-32s %s %s@." name est r2)
        analyzed)
    tests

(* ------------------------------------------------------------------ *)

let usage_error msg =
  Format.eprintf "bench: %s@." msg;
  Format.eprintf
    "usage: main.exe [--quick] [--deadline-ms N] [--jobs N] [--bulk-block N] \
     [--output FILE] [--compare BASELINE.json] [--tolerance PCT] \
     [--wall-tolerance PCT] [--profile-out FILE] [--chrome-out FILE] \
     [experiment ...]@.";
  exit 2

let parse_args () =
  let argv = Sys.argv in
  let n = Array.length argv in
  let value_of ~flag arg i =
    (* accepts both --flag=V and --flag V *)
    let prefix = flag ^ "=" in
    let plen = String.length prefix in
    if String.length arg > plen && String.sub arg 0 plen = prefix then
      Some (String.sub arg plen (String.length arg - plen), i)
    else if arg = flag then
      if i + 1 < n then Some (argv.(i + 1), i + 1)
      else usage_error (flag ^ " needs a value")
    else None
  in
  let int_value ~flag ~min store v =
    match int_of_string_opt v with
    | Some x when x >= min -> store x
    | _ -> usage_error (Printf.sprintf "bad %s value: %s" flag v)
  in
  let pct_value ~flag store v =
    match float_of_string_opt v with
    | Some x when x >= 0.0 -> store x
    | _ -> usage_error (Printf.sprintf "bad %s value: %s" flag v)
  in
  let flags =
    [
      ("--deadline-ms", int_value ~flag:"--deadline-ms" ~min:0 (( := ) deadline_ms));
      ("--jobs", int_value ~flag:"--jobs" ~min:1 Parmap.set_default_jobs);
      ( "--bulk-block",
        int_value ~flag:"--bulk-block" ~min:1 (fun b ->
            Bulk_rpq.set_block_rows (Some b)) );
      ("--output", ( := ) output_file);
      ("--compare", fun v -> compare_file := Some v);
      ("--tolerance", pct_value ~flag:"--tolerance" (( := ) tolerance));
      ( "--wall-tolerance",
        pct_value ~flag:"--wall-tolerance" (( := ) wall_tolerance) );
      ("--profile-out", fun v -> profile_out := Some v);
      ("--chrome-out", fun v -> chrome_out := Some v);
    ]
  in
  let i = ref 1 in
  while !i < n do
    let arg = argv.(!i) in
    if arg = "--quick" then quick := true
    else begin
      let matched =
        List.exists
          (fun (flag, apply) ->
            match value_of ~flag arg !i with
            | Some (v, j) ->
              i := j;
              apply v;
              true
            | None -> false)
          flags
      in
      if not matched then selected := arg :: !selected
    end;
    incr i
  done

(* SIGTERM / SIGINT: rewrite the partial results file (the completed
   prefix of the run) before terminating, so a killed CI job still
   leaves a valid BENCH_results.json behind. *)
let install_signal_handlers () =
  let handle code =
    Sys.Signal_handle
      (fun _ ->
        (try write_results () with Sys_error _ -> ());
        Format.eprintf "bench: terminated by signal; partial %s written@."
          !output_file;
        exit code)
  in
  (try Sys.set_signal Sys.sigterm (handle 143) with Invalid_argument _ -> ());
  try Sys.set_signal Sys.sigint (handle 130) with Invalid_argument _ -> ()

let () =
  Obs.Metrics.set_enabled true;
  parse_args ();
  install_signal_handlers ();
  if !profile_out <> None then Obs.Profile.arm ();
  if !chrome_out <> None then Obs.Trace.set_enabled true;
  let experiments =
    [
      ("fig1", run_fig1);
      ("fig2", run_fig2);
      ("hierarchy", run_hierarchy);
      ("ex47", run_ex47);
      ("expansions", run_expansions);
      ("thm51", run_thm51);
      ("thm52", run_thm52);
      ("thm61", run_thm61);
      ("thm62", run_thm62);
      ("eval", run_eval_bench);
      ("trails", run_trails);
      ("ablations", run_ablations);
      ("morphism", run_morphism);
      ("bulk", run_bulk);
      ("bulk_scale", run_bulk_scale);
      ("optimize", run_optimize);
      ("serve", run_serve);
      ("bechamel", bechamel_section);
    ]
  in
  Format.printf "CRPQ injective-semantics benchmark harness (PODS'23 reproduction)@.";
  Format.printf "experiments: %s%s@."
    (String.concat " " (List.map fst experiments))
    (if !quick then " (quick mode)" else "");
  List.iter (fun (name, f) -> if want name then run_experiment name f) experiments;
  write_results ();
  (* the file must round-trip through the Obs JSON reader *)
  let file = !output_file in
  let ic = open_in file in
  let contents = really_input_string ic (in_channel_length ic) in
  close_in ic;
  (match Obs.Json.parse contents with
  | Ok _ -> Format.printf "@.wrote %s (%d bytes)@." file (String.length contents)
  | Error e ->
    Format.eprintf "error: %s does not parse: %s@." file e;
    exit 1);
  (match !profile_out with
  | None -> ()
  | Some f ->
    Obs.Profile.write_collapsed f;
    Format.printf "wrote %s (%d call paths)@." f
      (List.length (Obs.Profile.samples ())));
  (match !chrome_out with
  | None -> ()
  | Some f ->
    Obs.Trace.write_chrome f (Obs.Trace.finished ());
    Format.printf "wrote %s (%d top-level spans, %d dropped)@." f
      (List.length (Obs.Trace.finished ()))
      (Obs.Trace.dropped ()));
  (* the gate runs last: everything above is already on disk, so a
     failing gate still leaves the full results and artifacts behind *)
  (match !compare_file with None -> () | Some f -> run_compare f);
  Format.printf "done.@."
