(* injcrpq: command-line interface to the CRPQ injective-semantics
   library.

     injcrpq eval     --query 'Q(x,y) :- x -[(ab)*]-> y' --graph db.txt --sem q-inj
     injcrpq contain  --lhs '...' --rhs '...' --sem a-inj
     injcrpq contain  --instance pcp -s a-inj --timeout 500 --json
     injcrpq expand   --query '...' --max-len 3
     injcrpq classify --query '...'
     injcrpq reduce   pcp|gcp|qbf
     injcrpq demo

   Exit-code contract (all subcommands):
     0  the command decided / completed
     1  lint found errors
     2  usage or input error (bad query, bad graph file, bad arguments)
     3  resource budget exhausted (--timeout / --max-steps / --max-depth)
     124  cmdliner's own command-line parse errors *)

open Cmdliner

let semantics_conv =
  let parse s =
    match Semantics.of_string s with
    | Some sem -> Ok sem
    | None -> Error (`Msg (Printf.sprintf "unknown semantics %S" s))
  in
  Arg.conv (parse, fun ppf s -> Format.pp_print_string ppf (Semantics.to_string s))

let query_conv =
  let parse s =
    match Crpq.parse_result s with
    | Ok q -> Ok q
    | Error e ->
      Error
        (`Msg
           (Printf.sprintf "cannot parse query: %s" (Crpq.string_of_parse_error e)))
  in
  Arg.conv (parse, fun ppf q -> Format.pp_print_string ppf (Crpq.to_string q))

let sem_arg =
  Arg.(
    value
    & opt semantics_conv Semantics.St
    & info [ "s"; "sem" ] ~docv:"SEM"
        ~doc:"Semantics: st, a-inj, q-inj, a-edge-inj or q-edge-inj.")

let query_arg names doc =
  Arg.(required & opt (some query_conv) None & info names ~docv:"QUERY" ~doc)

let graph_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "g"; "graph" ] ~docv:"FILE"
        ~doc:"Graph database file: one 'src label dst' edge per line.")

(* --------------------------- observability ------------------------- *)

(* Diagnostic-style message on stderr, then the usage-error exit code. *)
let usage_error msg =
  Format.eprintf "injcrpq: E900 error [cli]: %s@." msg;
  exit 2

(* Word-length bounds: no word is shorter than 0. *)
let check_bound flag n =
  if n < 0 then usage_error (Printf.sprintf "%s must be non-negative (got %d)" flag n)

(* [--stats], [--trace FILE], [--chrome FILE], [--log FILE],
   [--expo FILE] and [--profile FILE] are accepted by every subcommand.
   The reports are emitted from an [at_exit] hook because several
   commands terminate through [exit]; the term is the first argument of
   each run function, so observability is switched on before any work
   happens. *)
(* SIGTERM / SIGINT terminate through [exit], so the [at_exit] hooks
   below flush every armed sink (--log / --trace / --chrome / --profile
   / --expo) instead of losing the tail of the run.  143 / 130 are the
   conventional 128+signal codes; the serve subcommand replaces these
   with its graceful-drain handler. *)
let install_signal_exits () =
  let handle code = Sys.Signal_handle (fun _ -> exit code) in
  (try Sys.set_signal Sys.sigterm (handle 143) with Invalid_argument _ -> ());
  try Sys.set_signal Sys.sigint (handle 130) with Invalid_argument _ -> ()

let obs_setup stats trace chrome log log_level expo profile profile_every =
  install_signal_exits ();
  if stats || trace <> None || chrome <> None || expo <> None then
    Obs.Metrics.set_enabled true;
  if trace <> None || chrome <> None then Obs.Trace.set_enabled true;
  (match log with
  | None -> ()
  | Some file ->
    (match Obs.Events.level_of_string log_level with
    | Some l -> Obs.Events.set_level l
    | None ->
      usage_error
        (Printf.sprintf "unknown log level %S (debug|info|warn|error)"
           log_level));
    Obs.Events.set_enabled true;
    let oc = open_out file in
    Obs.Events.set_sink (Some oc);
    at_exit (fun () ->
        Obs.Events.set_sink None;
        close_out oc;
        Format.eprintf "log: %d event(s) written to %s@." (Obs.Events.emitted ())
          file));
  (match profile with
  | None -> ()
  | Some _ ->
    if profile_every < 1 then
      usage_error
        (Printf.sprintf "--profile-every must be positive (got %d)"
           profile_every);
    Obs.Profile.arm ~sample_every:profile_every ());
  at_exit (fun () ->
      (match profile with
      | None -> ()
      | Some file ->
        Obs.Profile.write_collapsed file;
        Format.eprintf "profile: %d call path(s) written to %s@."
          (List.length (Obs.Profile.samples ()))
          file);
      (match chrome with
      | None -> ()
      | Some file ->
        let spans = Obs.Trace.finished () in
        Obs.Trace.write_chrome file spans;
        Format.eprintf
          "chrome trace: %d top-level span(s) written to %s (load in \
           about://tracing or Perfetto)@."
          (List.length spans) file);
      (match trace with
      | None -> ()
      | Some file ->
        let spans = Obs.Trace.finished () in
        Obs.Trace.write_jsonl file spans;
        Format.eprintf "trace: %d top-level span(s) written to %s@."
          (List.length spans) file);
      (match expo with
      | None -> ()
      | Some file ->
        Obs.Expo.write_prometheus file (Obs.Metrics.snapshot ());
        Format.eprintf "expo: metrics exposition written to %s@." file);
      if stats then
        Format.eprintf "@.metrics (%s clock):@.%a@." (Obs.Clock.source_name ())
          Obs.Metrics.pp_table
          (Obs.Metrics.snapshot ()))

let obs_term =
  let stats_arg =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:"Print the metrics table (search counters) after the command.")
  in
  let trace_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"Record execution spans and write them to $(docv) as JSONL.")
  in
  let chrome_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "chrome" ] ~docv:"FILE"
          ~doc:"Record execution spans and write a Chrome trace_event JSON \
                document to $(docv) (loadable in about://tracing or \
                Perfetto).")
  in
  let log_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "log" ] ~docv:"FILE"
          ~doc:"Write structured decision events (guard trips, cache \
                evictions, refuted expansions, rewrite refusals) to $(docv) \
                as JSONL.")
  in
  let log_level_arg =
    Arg.(
      value & opt string "debug"
      & info [ "log-level" ] ~docv:"LEVEL"
          ~doc:"Drop events below $(docv): debug, info, warn or error.")
  in
  let expo_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "expo" ] ~docv:"FILE"
          ~doc:"Write the final metrics in Prometheus text exposition format \
                to $(docv).")
  in
  let profile_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "profile" ] ~docv:"FILE"
          ~doc:"Sample guard checkpoints into weighted call paths and write \
                flamegraph.pl collapsed-stack format to $(docv).")
  in
  let profile_every_arg =
    Arg.(
      value & opt int 1
      & info [ "profile-every" ] ~docv:"N"
          ~doc:"Sample every $(docv)-th checkpoint hit per domain (weights \
                stay unbiased).")
  in
  Term.(
    const obs_setup $ stats_arg $ trace_arg $ chrome_arg $ log_arg
    $ log_level_arg $ expo_arg $ profile_arg $ profile_every_arg)

(* --------------------------- explain reports ----------------------- *)

(* [--explain] on eval/contain/optimize: snapshot the metrics before the
   command body, diff at exit, render the report on stderr (stdout stays
   machine-readable).  The [explain] subcommand renders the same report
   on stdout, with [--json]. *)
let explain_enable () =
  Obs.Metrics.set_enabled true;
  Obs.Events.set_enabled true;
  if not (Obs.Profile.armed ()) then Obs.Profile.arm ()

let explain_report ~title before =
  let delta = Obs.Metrics.diff before (Obs.Metrics.snapshot ()) in
  Obs.Explain.of_metrics
    ~profile:(Obs.Profile.site_totals ())
    ~events:(Obs.Events.recent ()) ~title delta

let explain_setup ~title explain =
  if explain then begin
    explain_enable ();
    let before = Obs.Metrics.snapshot () in
    at_exit (fun () ->
        prerr_string (Obs.Explain.to_text (explain_report ~title before)))
  end

let explain_term ~title =
  let flag =
    Arg.(
      value & flag
      & info [ "explain" ]
          ~doc:"After the command, print a structured report of the work done \
                (search counters, cache hit ratios, guard budget per site) on \
                stderr.")
  in
  Term.(const (fun e -> explain_setup ~title e) $ flag)

(* --------------------------- performance --------------------------- *)

(* [--jobs], [--no-cache], [--bulk], [--bulk-sweep] and [--bulk-block]
   are accepted by every subcommand: the first fans independent
   subproblems (expansion scans, per-atom products) across OCaml 5
   domains, the second disables the automata memo tables (same effect
   as INJCRPQ_CACHE=off), the third selects the bit-matrix bulk RPQ
   engine for standard-semantics atom relations (same as INJCRPQ_BULK),
   and the last two pick the per-sweep kernel (INJCRPQ_BULK_SWEEP) and
   the source-tile size (INJCRPQ_BULK_BLOCK) of that engine. *)
let perf_setup jobs no_cache bulk bulk_sweep bulk_block =
  (match jobs with
  | Some n when n >= 1 -> Parmap.set_default_jobs n
  | Some n ->
    Format.eprintf "injcrpq: E900 error [cli]: --jobs must be positive (got %d)@."
      n;
    exit 2
  | None -> ());
  if no_cache then Cache.set_enabled false;
  (match bulk with
  | None -> ()
  | Some s -> (
    match Bulk_rpq.mode_of_string s with
    | Some m -> Bulk_rpq.set_mode m
    | None ->
      Format.eprintf
        "injcrpq: E900 error [cli]: --bulk expects on, off or auto (got %s)@." s;
      exit 2));
  (match bulk_sweep with
  | None -> ()
  | Some s -> (
    match Bulk_rpq.sweep_of_string s with
    | Some sw -> Bulk_rpq.set_sweep sw
    | None ->
      Format.eprintf
        "injcrpq: E900 error [cli]: --bulk-sweep expects sparse, dense or auto \
         (got %s)@."
        s;
      exit 2));
  match bulk_block with
  | None -> ()
  | Some b when b >= 1 -> Bulk_rpq.set_block_rows (Some b)
  | Some b ->
    Format.eprintf
      "injcrpq: E900 error [cli]: --bulk-block must be positive (got %d)@." b;
    exit 2

let perf_term =
  let jobs_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:"Run independent subproblems on $(docv) domains (default 1, or \
                \\$INJCRPQ_JOBS).")
  in
  let no_cache_arg =
    Arg.(
      value & flag
      & info [ "no-cache" ]
          ~doc:"Disable the automata memo tables (same as INJCRPQ_CACHE=off).")
  in
  let bulk_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "bulk" ] ~docv:"MODE"
          ~doc:"Bulk bit-matrix engine for standard-semantics atom relations: \
                $(b,on), $(b,off) or $(b,auto) (default auto, or \
                \\$INJCRPQ_BULK).")
  in
  let bulk_sweep_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "bulk-sweep" ] ~docv:"MODE"
          ~doc:"Per-sweep kernel of the bulk engine: $(b,sparse) (CSR frontier \
                push), $(b,dense) (bit-matrix rows) or $(b,auto) (switch by \
                measured frontier density; default, or \\$INJCRPQ_BULK_SWEEP).")
  in
  let bulk_block_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "bulk-block" ] ~docv:"B"
          ~doc:"Tile multi-source bulk runs into blocks of at most $(docv) \
                source rows, bounding peak visited-matrix memory (default: \
                sized from a 64 MiB tile budget, or \\$INJCRPQ_BULK_BLOCK).")
  in
  Term.(
    const perf_setup $ jobs_arg $ no_cache_arg $ bulk_arg $ bulk_sweep_arg
    $ bulk_block_arg)

(* --------------------------- resource guard ------------------------ *)

(* [--timeout], [--max-steps] and [--max-depth] are accepted by every
   subcommand; together they build the Guard installed around the
   command body.  Deciders then degrade to [Unknown (Resource_exhausted
   _)] and the command exits 3 — never hangs, never raises. *)
let guard_setup timeout steps depth =
  match timeout, steps, depth with
  | None, None, None -> None
  | _ -> Some (Guard.create ?deadline_ms:timeout ?fuel:steps ?max_depth:depth ())

let guard_term =
  let timeout_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "timeout" ] ~docv:"MS"
          ~doc:"Wall-clock budget in milliseconds (exit 3 when exceeded).")
  in
  let steps_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-steps" ] ~docv:"N"
          ~doc:"Step budget: total guarded search steps allowed (exit 3 when \
                exhausted).")
  in
  let depth_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-depth" ] ~docv:"N"
          ~doc:"Recursion-depth ceiling for backtracking searches (exit 3 \
                when exceeded).")
  in
  Term.(const guard_setup $ timeout_arg $ steps_arg $ depth_arg)

(* [governed guard f] is the degradation boundary of every subcommand:
   a guard trip that escapes the deciders exits 3 (rendered with
   [on_trip] when machine-readable output was requested), and any
   exception that would otherwise produce an uncaught backtrace becomes
   a Diagnostic-style message with exit 2. *)
let governed ?on_trip guard f =
  match Guard.run ?guard f with
  | Ok v -> v
  | Error trip ->
    (match on_trip with
    | Some render -> print_endline (Obs.Json.to_string (render trip))
    | None ->
      Format.eprintf "injcrpq: resource exhausted: %s@."
        (Guard.trip_to_string trip));
    exit 3
  | exception Containment_qinj.Unsupported msg ->
    usage_error ("abstraction algorithm: " ^ msg)
  | exception Containment_f7.Unsupported msg ->
    usage_error ("window algorithm: " ^ msg)
  | exception Invalid_argument msg -> usage_error msg
  | exception Failure msg -> usage_error msg
  | exception Sys_error msg -> usage_error msg
  | exception e ->
    Format.eprintf "injcrpq: E901 error [internal]: %s@."
      (Printexc.to_string e);
    exit 2

(* --------------------------- optimizer pre-pass ------------------- *)

(* [--optimize] (or INJCRPQ_OPTIMIZE=on) hooks the certified optimizer
   in front of every evaluation / containment decision of the
   subcommand.  Rewrites are containment-certified under the active
   semantics, so verdicts and answer sets are unchanged — only cheaper
   to compute. *)
let env_optimize () =
  match Sys.getenv_opt "INJCRPQ_OPTIMIZE" with
  | Some ("on" | "1" | "true") -> true
  | _ -> false

let optimize_setup flag = if flag || env_optimize () then Analysis.install_preprocessor ()

let optimize_term =
  let flag =
    Arg.(
      value & flag
      & info [ "optimize" ]
          ~doc:"Run the certified optimizer as a pre-pass on every query \
                (also enabled by INJCRPQ_OPTIMIZE=on).  Applied rewrites are \
                containment-certified, so results are unchanged.")
  in
  Term.(const optimize_setup $ flag)

(* ------------------------------ eval ------------------------------ *)

let eval_cmd =
  let run () () guard () () sem q graph_file tuple =
    let g =
      match Graph_io.load_result graph_file with
      | Ok g -> g
      | Error msg -> usage_error ("cannot load graph: " ^ msg)
    in
    governed guard (fun () ->
        match tuple with
        | [] ->
          let answers = Eval.eval sem q g in
          Format.printf "%d answer(s) under %s semantics:@."
            (List.length answers) (Semantics.to_string sem);
          List.iter
            (fun t ->
              Format.printf "  (%s)@."
                (String.concat ", " (List.map string_of_int t)))
            answers
        | t -> Format.printf "%b@." (Eval.check sem q g t))
  in
  let tuple_arg =
    Arg.(
      value & opt (list int) []
      & info [ "t"; "tuple" ] ~docv:"NODES"
          ~doc:"Check a specific answer tuple instead of enumerating.")
  in
  Cmd.v
    (Cmd.info "eval" ~doc:"Evaluate a CRPQ over a graph database.")
    Term.(
      const run $ obs_term $ perf_term $ guard_term $ optimize_term
      $ explain_term ~title:"eval" $ sem_arg
      $ query_arg [ "q"; "query" ] "The CRPQ to evaluate."
      $ graph_arg $ tuple_arg)

(* ---------------------------- contain ----------------------------- *)

let contain_cmd =
  let run () () guard () () sem lhs rhs instance bound json =
    check_bound "--bound" bound;
    let q1, q2 =
      match instance, lhs, rhs with
      | None, Some q1, Some q2 -> (q1, q2)
      | None, _, _ ->
        usage_error "contain needs --lhs and --rhs (or --instance NAME)"
      | Some _, Some _, _ | Some _, _, Some _ ->
        usage_error "--instance replaces --lhs/--rhs; give one or the other"
      | Some `Pcp, None, None ->
        (* the Thm 5.2 cell: a-inj containment is undecidable; without a
           budget the bounded search on this pair runs essentially
           forever *)
        let e = Pcp_to_ainj.encode Pcp.solvable_small in
        (e.Pcp_to_ainj.q1, e.Pcp_to_ainj.q2)
      | Some `Gcp, None, None ->
        let e = Gcp_to_qinj.encode (Gcp.cycle 4 ~n:2) in
        (e.Gcp_to_qinj.q1, e.Gcp_to_qinj.q2)
      | Some `Qbf, None, None ->
        let e = Qbf_to_ainj.encode Qbf.valid_small in
        (e.Qbf_to_ainj.q1, e.Qbf_to_ainj.q2)
    in
    let verdict_json v =
      let base =
        [
          ("verdict", Obs.Json.String (Containment.verdict_name v));
          ("semantics", Obs.Json.String (Semantics.to_string sem));
          ("strategy", Obs.Json.String (Containment.strategy_name sem q1 q2));
        ]
      in
      let extra =
        match v with
        | Containment.Unknown r -> [ ("reason", Containment.reason_to_json r) ]
        | Containment.Not_contained w ->
          [
            ( "counterexample",
              Obs.Json.String (Cq.to_string w.Containment.expansion.Expansion.cq)
            );
          ]
        | Containment.Contained -> []
      in
      Obs.Json.Obj (base @ extra)
    in
    let on_trip =
      if json then
        Some (fun trip -> verdict_json (Containment.resource_exhausted trip))
      else None
    in
    governed ?on_trip guard (fun () ->
        let v = Containment.decide ~bound sem q1 q2 in
        if json then print_endline (Obs.Json.to_string (verdict_json v))
        else begin
          Format.printf "strategy: %s@." (Containment.strategy_name sem q1 q2);
          Format.printf "%a@." Containment.pp_verdict v
        end;
        match v with Containment.Unknown _ -> exit 3 | _ -> ())
  in
  let bound_arg =
    Arg.(
      value & opt int 4
      & info [ "b"; "bound" ] ~docv:"N"
          ~doc:"Word-length bound for the bounded counterexample search.")
  in
  let opt_query names doc =
    Arg.(value & opt (some query_conv) None & info names ~docv:"QUERY" ~doc)
  in
  let instance_arg =
    Arg.(
      value
      & opt (some (enum [ ("pcp", `Pcp); ("gcp", `Gcp); ("qbf", `Qbf) ])) None
      & info [ "instance" ] ~docv:"NAME"
          ~doc:"Use a built-in hardness-reduction query pair (pcp, gcp or \
                qbf) instead of --lhs/--rhs.")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Machine-readable JSON verdict on stdout.")
  in
  Cmd.v
    (Cmd.info "contain"
       ~doc:"Decide Q1 ⊆ Q2 under the chosen semantics (exit 3 when undecided \
             or out of budget).")
    Term.(
      const run $ obs_term $ perf_term $ guard_term $ optimize_term
      $ explain_term ~title:"contain" $ sem_arg
      $ opt_query [ "lhs" ] "Left-hand query Q1."
      $ opt_query [ "rhs" ] "Right-hand query Q2."
      $ instance_arg $ bound_arg $ json_arg)

(* ----------------------------- expand ----------------------------- *)

let expand_cmd =
  let run () () guard q max_len ainj =
    check_bound "--max-len" max_len;
    governed guard (fun () ->
        let es =
          if ainj then Expansion.ainj_expansions ~max_len q
          else Expansion.expansions ~max_len q
        in
        Format.printf "%d expansion(s) with atom words of length <= %d:@."
          (List.length es) max_len;
        List.iter
          (fun e -> Format.printf "  %s@." (Cq.to_string e.Expansion.cq))
          es)
  in
  let max_len_arg =
    Arg.(value & opt int 2 & info [ "max-len" ] ~docv:"N" ~doc:"Word length bound.")
  in
  let ainj_arg =
    Arg.(
      value & flag
      & info [ "a-inj" ] ~doc:"Enumerate a-inj-expansions (with merges) instead.")
  in
  Cmd.v
    (Cmd.info "expand" ~doc:"Enumerate (a-inj-)expansions of a CRPQ.")
    Term.(
      const run $ obs_term $ perf_term $ guard_term
      $ query_arg [ "q"; "query" ] "The CRPQ."
      $ max_len_arg $ ainj_arg)

(* ---------------------------- classify ---------------------------- *)

let classify_cmd =
  let run () () guard q =
    governed guard @@ fun () ->
    let cls =
      match Crpq.classify q with
      | Crpq.Class_cq -> "CQ"
      | Crpq.Class_fin -> "CRPQfin"
      | Crpq.Class_crpq -> "CRPQ"
    in
    Format.printf "class: %s@." cls;
    Format.printf "atoms: %d, variables: %d, alphabet: {%s}@." (Crpq.size q)
      (List.length (Crpq.vars q))
      (String.concat ", " (Crpq.alphabet q));
    Format.printf "boolean: %b, satisfiable: %b@." (Crpq.is_boolean q)
      (Crpq.epsilon_free_disjuncts q <> [])
  in
  Cmd.v
    (Cmd.info "classify" ~doc:"Report the class and shape of a CRPQ.")
    Term.(
      const run $ obs_term $ perf_term $ guard_term $ query_arg [ "q"; "query" ] "The CRPQ.")

(* ----------------------------- reduce ----------------------------- *)

let reduce_cmd =
  let run () () guard which =
    governed guard @@ fun () ->
    match which with
    | "pcp" ->
      let inst = Pcp.solvable_small in
      let enc = Pcp_to_ainj.encode inst in
      Format.printf "PCP instance %a (solvable with 1,2)@." Pcp.pp inst;
      Format.printf "@.Q1 = %s@." (Crpq.to_string enc.Pcp_to_ainj.q1);
      Format.printf "@.Q2 = %s@." (Crpq.to_string enc.Pcp_to_ainj.q2);
      Format.printf "@.solution expansion defeats Q2: %b@."
        (Pcp_to_ainj.is_counterexample enc
           (Pcp_to_ainj.well_formed_expansion enc [ 1; 2 ]))
    | "gcp" ->
      let inst = Gcp.cycle 4 ~n:2 in
      let enc = Gcp_to_qinj.encode inst in
      Format.printf "GCP2 instance: %a@." Gcp.pp inst;
      Format.printf "@.Q1 = %s@." (Crpq.to_string enc.Gcp_to_qinj.q1);
      Format.printf "@.Q2 = %s@." (Crpq.to_string enc.Gcp_to_qinj.q2);
      let via_q, via_b = Gcp_to_qinj.verify inst in
      Format.printf "@.GCP2 positive (queries/brute): %b/%b@." via_q via_b
    | "qbf" ->
      let inst = Qbf.valid_small in
      let enc = Qbf_to_ainj.encode inst in
      Format.printf "QBF instance: %a@." Qbf.pp inst;
      Format.printf "@.|Q1| = %d atoms, |Q2| = %d atoms@."
        (Crpq.size enc.Qbf_to_ainj.q1) (Crpq.size enc.Qbf_to_ainj.q2);
      let via_q, via_b = Qbf_to_ainj.verify inst in
      Format.printf "valid (queries/brute): %b/%b@." via_q via_b
    | other -> usage_error (Printf.sprintf "unknown reduction %S (pcp|gcp|qbf)" other)
  in
  let which_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"WHICH" ~doc:"pcp, gcp or qbf.")
  in
  Cmd.v
    (Cmd.info "reduce"
       ~doc:"Show one of the paper's hardness reductions on a sample instance.")
    Term.(const run $ obs_term $ perf_term $ guard_term $ which_arg)

(* ---------------------------- minimize ---------------------------- *)

let minimize_cmd =
  let run () () guard sem q =
    governed guard @@ fun () ->
    let m, _ = Rewrite.rewrite sem q in
    Format.printf "%s@." (Crpq.to_string (Minimize.prune_languages m));
    if Crpq.size m < Crpq.size q then
      Format.printf "(removed %d redundant atom(s) under %s semantics)@."
        (Crpq.size q - Crpq.size m)
        (Semantics.to_string sem)
  in
  Cmd.v
    (Cmd.info "minimize"
       ~doc:"Remove provably redundant atoms and simplify languages.")
    Term.(
      const run $ obs_term $ perf_term $ guard_term $ sem_arg
      $ query_arg [ "q"; "query" ] "The CRPQ.")

(* ------------------------------ equiv ----------------------------- *)

let equiv_cmd =
  let run () () guard sem q1 q2 bound =
    check_bound "--bound" bound;
    governed guard @@ fun () ->
    match Minimize.equivalent ~bound sem q1 q2 with
    | Some b -> Format.printf "%b@." b
    | None ->
      Format.printf "undecided@.";
      exit 3
  in
  let bound_arg =
    Arg.(value & opt int 4 & info [ "b"; "bound" ] ~docv:"N" ~doc:"Search bound.")
  in
  Cmd.v
    (Cmd.info "equiv"
       ~doc:"Decide query equivalence under a semantics (exit 3 when \
             undecided).")
    Term.(
      const run $ obs_term $ perf_term $ guard_term $ sem_arg
      $ query_arg [ "lhs" ] "First query."
      $ query_arg [ "rhs" ] "Second query."
      $ bound_arg)

(* ------------------------------ lint ------------------------------ *)

(* Inline queries keep their positional names; file queries are named
   basename:lineno by [Analysis.read_query_file]. *)
let gather_queries ~cmd queries file =
  let from_file =
    match file with
    | None -> []
    | Some path -> (
      match Analysis.read_query_file path with
      | Ok qs -> qs
      | Error msg ->
        Format.eprintf "%s: %s@." cmd msg;
        exit 2)
  in
  let named =
    List.mapi (fun i q -> (Printf.sprintf "query %d" i, q)) queries @ from_file
  in
  if named = [] then begin
    Format.eprintf "%s: nothing to do (use --query or --file)@." cmd;
    exit 2
  end;
  named

let lint_cmd =
  let run () () guard sem queries file json no_redundancy no_nfa no_shape bound
      graph_file explain =
    check_bound "--bound" bound;
    governed guard @@ fun () ->
    match explain with
    | Some code -> (
      match Catalog.find code with
      | Some entry -> print_endline (Catalog.to_string entry)
      | None ->
        usage_error
          (Printf.sprintf "unknown diagnostic code %S (see the catalogue in README.md)"
             code))
    | None ->
      let graph =
        match graph_file with
        | None -> None
        | Some path -> (
          match Graph_io.load_result path with
          | Ok g -> Some g
          | Error msg -> usage_error ("cannot load graph: " ^ msg))
      in
      let named_queries = gather_queries ~cmd:"lint" queries file in
      let any_errors = ref false in
      let results =
        List.map
          (fun (name, q) ->
            let ds =
              Analysis.lint ~sem ~redundancy:(not no_redundancy) ~bound
                ~nfa_hygiene:(not no_nfa) ~shape:(not no_shape) ?graph q
            in
            if Diagnostic.has_errors ds then any_errors := true;
            (name, q, ds))
          named_queries
      in
      if json then
        (* one JSON array over all queries, tagging each diagnostic list *)
        print_endline (Analysis.lint_json results)
      else
        List.iter
          (fun (name, q, ds) ->
            Format.printf "%s: %s@." name (Crpq.to_string q);
            if ds = [] then Format.printf "  clean (no diagnostics)@."
            else List.iter (fun d -> Format.printf "  %s@." (Diagnostic.to_string d)) ds)
          results;
      if !any_errors then exit 1
  in
  let queries_arg =
    Arg.(
      value
      & opt_all query_conv []
      & info [ "q"; "query" ] ~docv:"QUERY" ~doc:"A CRPQ to lint (repeatable).")
  in
  let file_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "f"; "file" ] ~docv:"FILE"
          ~doc:"Lint every query in $(docv) (one per line; blank lines and # comments skipped).")
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Machine-readable JSON output.")
  in
  let no_redundancy_arg =
    Arg.(
      value & flag
      & info [ "no-redundancy" ]
          ~doc:"Skip the containment-backed redundant-atom pass (I006), the only \
                expensive one.")
  in
  let no_nfa_arg =
    Arg.(
      value & flag
      & info [ "no-nfa-hygiene" ] ~doc:"Skip the per-atom NFA hygiene summary.")
  in
  let bound_arg =
    Arg.(
      value & opt int 4
      & info [ "b"; "bound" ] ~docv:"N"
          ~doc:"Containment search bound for the redundancy pass.")
  in
  let no_shape_arg =
    Arg.(
      value & flag
      & info [ "no-shape" ]
          ~doc:"Skip the I101/I102/I103 query-shape report (treewidth, \
                decomposition bags, articulation points).")
  in
  let lint_graph_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "g"; "graph" ] ~docv:"FILE"
          ~doc:"Example graph (one 'src label dst' edge per line): \
                additionally run the W104 empty-candidate-domain pass \
                against it.")
  in
  let explain_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "explain" ] ~docv:"CODE"
          ~doc:"Print the catalogue entry for a diagnostic code (e.g. W003) \
                and exit.")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Run the static-analysis passes over queries (exit 1 on errors, 2 on \
             usage problems).")
    Term.(
      const run $ obs_term $ perf_term $ guard_term $ sem_arg $ queries_arg $ file_arg
      $ json_arg $ no_redundancy_arg $ no_nfa_arg $ no_shape_arg $ bound_arg
      $ lint_graph_arg $ explain_arg)

(* ---------------------------- optimize ---------------------------- *)

let optimize_cmd =
  let run () () guard () sem queries file json dry_run bound =
    check_bound "--bound" bound;
    governed guard @@ fun () ->
    let named_queries = gather_queries ~cmd:"optimize" queries file in
    let results =
      List.map
        (fun (name, q) ->
          let q', report = Analysis.optimize ~sem ~bound q in
          (name, q, q', report))
        named_queries
    in
    if json then
      print_endline
        (Obs.Json.to_string
           (Obs.Json.List
              (List.map
                 (fun (name, q, q', report) ->
                   Analysis.optimize_json ~name ~sem ~before:q ~after:q' report)
                 results)))
    else
      List.iter
        (fun (name, q, q', report) ->
          Format.printf "%s: %s@." name (Crpq.to_string q);
          List.iter
            (fun (s : Rewrite.step) ->
              Format.printf "  %s %s (%s)@."
                (if s.Rewrite.applied then "applied" else "skipped")
                (Rewrite.candidate_to_string s.Rewrite.candidate)
                s.Rewrite.note)
            report.Analysis.rewrite.Rewrite.steps;
          let shape = report.Analysis.shape_after in
          Format.printf "  treewidth %d (%s), %d atom(s) removed@."
            shape.Query_shape.width
            (if shape.Query_shape.width_exact then "exact" else "min-fill bound")
            (Rewrite.removed_atoms report.Analysis.rewrite);
          if dry_run then
            Format.printf "  dry run: query left unchanged@."
          else Format.printf "  => %s@." (Crpq.to_string q'))
        results
  in
  let queries_arg =
    Arg.(
      value
      & opt_all query_conv []
      & info [ "q"; "query" ] ~docv:"QUERY" ~doc:"A CRPQ to optimize (repeatable).")
  in
  let file_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "f"; "file" ] ~docv:"FILE"
          ~doc:"Optimize every query in $(docv) (one per line; blank lines and \
                # comments skipped).")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Machine-readable report: queries before/after, every \
                certificate check, shape summaries.")
  in
  let dry_run_arg =
    Arg.(
      value & flag
      & info [ "dry-run" ]
          ~doc:"Report the certified rewrites without printing the rewritten \
                query as the result.")
  in
  let bound_arg =
    Arg.(
      value & opt int 4
      & info [ "b"; "bound" ] ~docv:"N"
          ~doc:"Containment search bound for the certificate checks.")
  in
  Cmd.v
    (Cmd.info "optimize"
       ~doc:"Rewrite queries under containment-checked certificates: drop \
             provably redundant atoms, merge ε-joined variables, collapse \
             unsatisfiable queries; report treewidth before/after.")
    Term.(
      const run $ obs_term $ perf_term $ guard_term
      $ explain_term ~title:"optimize" $ sem_arg $ queries_arg
      $ file_arg $ json_arg $ dry_run_arg $ bound_arg)

(* ----------------------------- explain ---------------------------- *)

(* One structured report per run: what was searched, pruned, cached,
   checkpointed and rewritten.  The mode is inferred from the arguments
   (--lhs/--rhs: containment; --query with --graph: evaluation; --query
   alone: the certified optimizer), mirroring the corresponding
   subcommand, with the report on stdout instead of the verdict. *)
let explain_cmd =
  let run () () guard () sem query graph_file lhs rhs bound json =
    check_bound "--bound" bound;
    explain_enable ();
    let before = Obs.Metrics.snapshot () in
    let finish ~title extra =
      let report =
        List.fold_left Obs.Explain.add_section
          (explain_report ~title before)
          extra
      in
      if json then print_endline (Obs.Json.to_string (Obs.Explain.to_json report))
      else print_string (Obs.Explain.to_text report)
    in
    governed guard (fun () ->
        match lhs, rhs, query, graph_file with
        | Some q1, Some q2, None, None ->
          let v = Containment.decide ~bound sem q1 q2 in
          finish ~title:"contain"
            [
              Obs.Explain.section "verdict"
                [
                  Obs.Explain.row "semantics"
                    (Obs.Json.String (Semantics.to_string sem));
                  Obs.Explain.row "strategy"
                    (Obs.Json.String (Containment.strategy_name sem q1 q2));
                  Obs.Explain.row "verdict"
                    (Obs.Json.String
                       (Format.asprintf "%a" Containment.pp_verdict v));
                ];
            ]
        | None, None, Some q, Some gfile ->
          let g =
            match Graph_io.load_result gfile with
            | Ok g -> g
            | Error msg -> usage_error ("cannot load graph: " ^ msg)
          in
          let answers = Eval.eval sem q g in
          finish ~title:"eval"
            [
              Obs.Explain.section "result"
                [
                  Obs.Explain.row "semantics"
                    (Obs.Json.String (Semantics.to_string sem));
                  Obs.Explain.row "answers"
                    (Obs.Json.Int (List.length answers));
                ];
            ]
        | None, None, Some q, None ->
          let q', report = Analysis.optimize ~sem ~bound q in
          let step_row (s : Rewrite.step) =
            let cost_ns =
              List.fold_left
                (fun acc (c : Rewrite.check) ->
                  Int64.add acc c.Rewrite.wall_ns)
                0L s.Rewrite.checks
            in
            Obs.Explain.row
              (Rewrite.candidate_to_string s.Rewrite.candidate)
              (Obs.Json.Obj
                 [
                   ("applied", Obs.Json.Bool s.Rewrite.applied);
                   ("note", Obs.Json.String s.Rewrite.note);
                   ("checks", Obs.Json.Int (List.length s.Rewrite.checks));
                   ("certificate_ns", Obs.Json.Int (Int64.to_int cost_ns));
                 ])
          in
          finish ~title:"optimize"
            [
              Obs.Explain.section "result"
                [
                  Obs.Explain.row "before"
                    (Obs.Json.String (Crpq.to_string q));
                  Obs.Explain.row "after"
                    (Obs.Json.String (Crpq.to_string q'));
                  Obs.Explain.row "atoms_removed"
                    (Obs.Json.Int
                       (Rewrite.removed_atoms report.Analysis.rewrite));
                ];
              Obs.Explain.section "rewrite steps"
                (List.map step_row report.Analysis.rewrite.Rewrite.steps);
            ]
        | _ ->
          usage_error
            "explain needs --lhs/--rhs (containment), or --query with \
             --graph (evaluation), or --query alone (optimizer)")
  in
  let opt_query names doc =
    Arg.(value & opt (some query_conv) None & info names ~docv:"QUERY" ~doc)
  in
  let opt_graph =
    Arg.(
      value
      & opt (some string) None
      & info [ "g"; "graph" ] ~docv:"FILE"
          ~doc:"Graph database file: one 'src label dst' edge per line.")
  in
  let bound_arg =
    Arg.(
      value & opt int 4
      & info [ "b"; "bound" ] ~docv:"N"
          ~doc:"Containment search bound (containment and certificate \
                checks).")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Machine-readable report (schema injcrpq-explain/1) on stdout.")
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:"Run a containment / evaluation / optimizer pass and report the \
             work done: expansions tried and pruned, CSP candidates and \
             backtracks, cache hit ratios per table, guard budget per site, \
             rewrite steps with certificate costs.")
    Term.(
      const run $ obs_term $ perf_term $ guard_term $ optimize_term $ sem_arg
      $ opt_query [ "q"; "query" ] "Query to evaluate or optimize."
      $ opt_graph
      $ opt_query [ "lhs" ] "Left-hand query Q1 (containment mode)."
      $ opt_query [ "rhs" ] "Right-hand query Q2 (containment mode)."
      $ bound_arg $ json_arg)

(* ------------------------------ serve ----------------------------- *)

let serve_cmd =
  let parse_graph_spec spec =
    match String.index_opt spec '=' with
    | Some i ->
      ( String.sub spec 0 i,
        String.sub spec (i + 1) (String.length spec - i - 1) )
    | None -> ("default", spec)
  in
  let run () () socket port graph_specs workers queue_bound timeout_ms
      max_steps quota_rps quota_burst retry_attempts retry_base_ms drain_ms
      answer_cap =
    let graphs =
      List.map
        (fun spec ->
          let name, file = parse_graph_spec spec in
          match Graph_io.load_result file with
          | Ok g -> (name, g)
          | Error msg ->
            usage_error (Printf.sprintf "cannot load graph %s: %s" file msg))
        graph_specs
    in
    (match
       List.find_opt
         (fun (n, _) -> List.length (List.filter (fun (m, _) -> m = n) graphs) > 1)
         graphs
     with
    | Some (n, _) -> usage_error (Printf.sprintf "duplicate graph name %S" n)
    | None -> ());
    let quota =
      match quota_rps with
      | None -> None
      | Some rate_per_s -> (
        try Some (Serve.Quota.policy ?burst:quota_burst ~rate_per_s ())
        with Invalid_argument msg -> usage_error msg)
    in
    let retry =
      try
        Guard.Retry.policy ~max_attempts:retry_attempts
          ~base_delay_ms:retry_base_ms ()
      with Invalid_argument msg -> usage_error msg
    in
    let cfg =
      try
        Serve.Server.config ~workers ~queue_bound ~timeout_ms ?max_steps ?quota
          ~retry ~drain_ms ~answer_cap ~graphs ()
      with Invalid_argument msg -> usage_error msg
    in
    let srv = Serve.Server.create cfg in
    let listen, where, cleanup =
      match socket, port with
      | Some _, Some _ ->
        usage_error "--socket and --port are mutually exclusive"
      | None, None -> usage_error "serve needs --socket PATH or --port N"
      | Some path, None -> (
        (try Unix.unlink path with Unix.Unix_error _ -> ());
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        try
          Unix.bind fd (Unix.ADDR_UNIX path);
          Unix.listen fd 64;
          ( fd,
            path,
            fun () ->
              (try Unix.close fd with Unix.Unix_error _ -> ());
              try Unix.unlink path with Unix.Unix_error _ -> () )
        with Unix.Unix_error (e, _, _) ->
          usage_error
            (Printf.sprintf "cannot listen on %s: %s" path
               (Unix.error_message e)))
      | None, Some port -> (
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.setsockopt fd Unix.SO_REUSEADDR true;
        try
          Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
          Unix.listen fd 64;
          ( fd,
            Printf.sprintf "127.0.0.1:%d" port,
            fun () -> try Unix.close fd with Unix.Unix_error _ -> () )
        with Unix.Unix_error (e, _, _) ->
          usage_error
            (Printf.sprintf "cannot listen on port %d: %s" port
               (Unix.error_message e)))
    in
    (* replace the exit-style handlers from obs_setup with graceful
       drain: stop accepting, finish in-flight, then run returns and we
       exit 0 through the normal path (flushing sinks on the way) *)
    let graceful = Sys.Signal_handle (fun _ -> Serve.Server.shutdown srv) in
    (try Sys.set_signal Sys.sigterm graceful with Invalid_argument _ -> ());
    (try Sys.set_signal Sys.sigint graceful with Invalid_argument _ -> ());
    Format.eprintf
      "injcrpq: serving on %s (%d worker(s), queue %d, %d graph(s))@." where
      workers queue_bound (List.length graphs);
    Serve.Server.run srv ~listen ();
    cleanup ();
    Format.eprintf "injcrpq: drained cleanly@."
  in
  let socket_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Listen on a unix-domain socket at $(docv).")
  in
  let port_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "port" ] ~docv:"N" ~doc:"Listen on 127.0.0.1:$(docv) (TCP).")
  in
  let graphs_arg =
    Arg.(
      value & opt_all string []
      & info [ "graph" ] ~docv:"NAME=FILE"
          ~doc:"Load a graph database once, shared by all requests \
                (repeatable).  A bare FILE is named \"default\".")
  in
  let workers_arg =
    Arg.(
      value & opt int 2
      & info [ "workers" ] ~docv:"N" ~doc:"Domain worker pool size.")
  in
  let queue_bound_arg =
    Arg.(
      value & opt int 64
      & info [ "queue-bound" ] ~docv:"N"
          ~doc:"Admission queue capacity; a full queue sheds with a \
                structured response instead of queueing unboundedly.")
  in
  let timeout_arg =
    Arg.(
      value & opt int 5000
      & info [ "request-timeout" ] ~docv:"MS"
          ~doc:"Server cap on any request's wall-clock budget; on a trip \
                the request answers status=unknown.")
  in
  let steps_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "request-steps" ] ~docv:"N"
          ~doc:"Server cap on any request's step budget (fuel).")
  in
  let quota_rps_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "quota-rps" ] ~docv:"R"
          ~doc:"Per-session token-bucket rate (requests per second); \
                over-quota requests answer status=quota with a \
                retry_after_ms hint.")
  in
  let quota_burst_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "quota-burst" ] ~docv:"B"
          ~doc:"Token-bucket capacity (default: max 1 R).")
  in
  let retry_attempts_arg =
    Arg.(
      value & opt int 3
      & info [ "retry-attempts" ] ~docv:"N"
          ~doc:"Attempts per request for transient (injected-fault) trips.")
  in
  let retry_base_arg =
    Arg.(
      value & opt int 10
      & info [ "retry-base-ms" ] ~docv:"MS"
          ~doc:"Base delay of the jittered exponential backoff between \
                attempts.")
  in
  let drain_arg =
    Arg.(
      value & opt int 2000
      & info [ "drain-ms" ] ~docv:"MS"
          ~doc:"Grace period on SIGTERM/SIGINT before in-flight requests \
                are cancelled through their tokens.")
  in
  let answer_cap_arg =
    Arg.(
      value & opt int 1000
      & info [ "answer-cap" ] ~docv:"N"
          ~doc:"Maximum answer tuples returned per eval response.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the query daemon: load graphs once, serve eval / contain / \
             lint / optimize / stats requests over a JSON-line socket \
             protocol (schema injcrpq-serve/1) with admission control, \
             per-session quotas, per-request resource guards, retry with \
             backoff, and graceful drain on SIGTERM.")
    Term.(
      const run $ obs_term $ perf_term $ socket_arg $ port_arg $ graphs_arg
      $ workers_arg $ queue_bound_arg $ timeout_arg $ steps_arg
      $ quota_rps_arg $ quota_burst_arg $ retry_attempts_arg $ retry_base_arg
      $ drain_arg $ answer_cap_arg)

(* ------------------------------ demo ------------------------------ *)

let demo_cmd =
  let run () () guard () =
    governed guard @@ fun () ->
    let q = Paper_examples.example_21_query in
    Format.printf "Example 2.1: Q = %s@." (Crpq.to_string q);
    let g = Paper_examples.example_21_g in
    let t = Paper_examples.example_21_g_tuple in
    List.iter
      (fun sem ->
        Format.printf "  (u,w) under %-6s: %b@." (Semantics.to_string sem)
          (Eval.check sem q g t))
      Semantics.node_semantics;
    Format.printf "@.Example 4.7 verdicts:@.";
    List.iter
      (fun (name, sem, q1, q2, expected) ->
        Format.printf "  %s under %-6s: %a (paper: %b)@." name
          (Semantics.to_string sem) Containment.pp_verdict
          (Containment.decide sem q1 q2) expected)
      Paper_examples.example_47_expectations
  in
  Cmd.v
    (Cmd.info "demo" ~doc:"Run the paper's running examples.")
    Term.(const run $ obs_term $ perf_term $ guard_term $ const ())

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  let info =
    Cmd.info "injcrpq" ~version:"1.0.0"
      ~doc:"CRPQs under injective semantics (PODS'23 reproduction)."
  in
  exit
    (Cmd.eval
       (Cmd.group ~default info
          [
            eval_cmd;
            contain_cmd;
            expand_cmd;
            explain_cmd;
            classify_cmd;
            lint_cmd;
            optimize_cmd;
            minimize_cmd;
            equiv_cmd;
            reduce_cmd;
            serve_cmd;
            demo_cmd;
          ]))
