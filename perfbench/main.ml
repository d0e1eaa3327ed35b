(* The end-to-end benchmark.

     main.exe --workload W --seed N --seconds S --trace 0|1
     main.exe pin W

   Each workload runs a closed loop from one client thread over a fixed
   op pool replayed in a seed-chosen order, checks every answer against
   the pinned one, and prints one JSON result as the last line of
   standard output.  With [--trace 0] the metrics are the end-to-end
   ones (tracing and Obs.Metrics off); with [--trace 1] part of the time
   runs untraced and part traced, with spans around every layer call,
   and the metrics are the per-layer ones.  See perfbench/README.md. *)

let workloads = [ "st-gnm"; "contain"; "serve" ]

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit 2) fmt

(* ------------------------------------------------------------------ *)
(* Configuration pinning                                               *)
(* ------------------------------------------------------------------ *)

let injcrpq_env () =
  List.filter (String.starts_with ~prefix:"INJCRPQ_") (Array.to_list (Unix.environment ()))

(* The library reads its INJCRPQ_* settings when it initializes, so a
   run that finds any re-executes itself without them (recording what it
   found); INJCRPQ_CHAOS is refused outright. *)
let pin_config argv =
  let env = injcrpq_env () in
  if List.exists (String.starts_with ~prefix:"INJCRPQ_CHAOS=") env then
    fail "refusing to run with INJCRPQ_CHAOS set";
  if env <> [] then begin
    let clean =
      Array.of_list
        (List.filter (fun kv -> not (List.mem kv env)) (Array.to_list (Unix.environment ())))
    in
    Unix.execve Sys.executable_name
      (Array.append argv [| "--recorded-env"; String.concat ";" env |])
      clean
  end

(* The CPUs this process may run on, from the Cpus_allowed_list line of
   /proc/self/status ("0-1", "0,2-3"); [] where that file is missing. *)
let allowed_cpus () =
  let range r =
    match List.map int_of_string_opt (String.split_on_char '-' r) with
    | [ Some a ] -> [ a ]
    | [ Some a; Some b ] -> List.init (b - a + 1) (fun i -> a + i)
    | _ -> []
  in
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> []
  | status ->
    List.concat_map
      (fun line ->
        match String.split_on_char ':' line with
        | [ "Cpus_allowed_list"; v ] ->
          List.concat_map range (String.split_on_char ',' (String.trim v))
        | _ -> [])
      (String.split_on_char '\n' status)

let cpus_at_start = allowed_cpus ()

(* Moves every thread of this process onto [cpu] with [taskset]; threads
   and domains started later inherit it.  Without [taskset] the process
   stays where it is. *)
let pin_process cpu =
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close null)
    (fun () ->
      match
        Unix.create_process "taskset"
          [| "taskset"; "-a"; "-p"; "-c"; string_of_int cpu; string_of_int (Unix.getpid ()) |]
          Unix.stdin null null
      with
      | exception Unix.Unix_error _ -> ()
      | pid -> ignore (Unix.waitpid [] pid))

let effective_config () =
  Obs.Json.Obj
    [
      ("jobs", Obs.Json.Int (Parmap.default_jobs ()));
      ("cache", Obs.Json.Bool (Cache.is_enabled ()));
      ("bulk", Obs.Json.String (Bulk_rpq.mode_to_string (Bulk_rpq.current_mode ())));
      ("bulk_sweep", Obs.Json.String (Bulk_rpq.sweep_to_string (Bulk_rpq.current_sweep ())));
      ( "bulk_block",
        match Bulk_rpq.current_block_rows () with None -> Obs.Json.Null | Some b -> Obs.Json.Int b );
      ("optimizer_prepass", Obs.Json.Bool false);
    ]

(* ------------------------------------------------------------------ *)
(* Ops                                                                 *)
(* ------------------------------------------------------------------ *)

type layer = { layer : 'a. string -> (unit -> 'a) -> 'a }

type op = {
  expected : string;
  run : unit -> string;  (** the user's operation; returns its answer *)
  traced : layer -> string;  (** the same operation with layer spans *)
  strategy : string Lazy.t;  (** containment procedure, "" for evaluation *)
}

(* Gc allocation and major collections of the op's own library call,
   accumulated over the traced phase. *)
let gc_words = ref 0.0

let gc_majors = ref 0

let with_gc f =
  let s0 = Gc.quick_stat () in
  let v = f () in
  let s1 = Gc.quick_stat () in
  gc_words :=
    !gc_words
    +. (s1.Gc.minor_words -. s0.Gc.minor_words)
    +. (s1.Gc.major_words -. s0.Gc.major_words)
    -. (s1.Gc.promoted_words -. s0.Gc.promoted_words);
  gc_majors := !gc_majors + (s1.Gc.major_collections - s0.Gc.major_collections);
  v

(* A layer call the op itself does not make (a re-parse of text parsed
   at set-up, a relation that Eval builds again): timed as its own span,
   with Obs.Metrics paused so that the counters describe the op alone. *)
let probe (l : layer) name f =
  Obs.Metrics.set_enabled false;
  let v = l.layer name f in
  Obs.Metrics.set_enabled true;
  v

let relation_probe l g (q : Crpq.t) =
  List.iter
    (fun (a : Crpq.atom) ->
      ignore
        (probe l "bulk_rpq.relation" (fun () ->
             Bulk_rpq.with_caller "direct" (fun () -> Bulk_rpq.st_relation g (Crpq.nfa a.Crpq.lang)))))
    q.Crpq.atoms

let build_nfas (q : Crpq.t) = List.iter (fun (a : Crpq.atom) -> ignore (Crpq.nfa a.Crpq.lang)) q.Crpq.atoms

let eval_op ~text ~expected ~run_q g q =
  {
    expected;
    run = (fun () -> run_q g q);
    traced =
      (fun l ->
        ignore (probe l "crpq.parse" (fun () -> Crpq.parse text));
        l.layer "nfa.build" (fun () -> build_nfas q);
        relation_probe l g q;
        l.layer "eval" (fun () -> with_gc (fun () -> run_q g q)));
    strategy = lazy "";
  }

(* Set-up, as a user pays it: the graph loaded from edge-list text by
   Graph_io, every op's query text parsed, and the per-graph adjacency
   memo (CSR and dense label matrices) built. *)
let graph_setup text =
  let g = Graph_io.of_string text in
  ignore (Csr.of_graph g);
  ignore (Bulk_rpq.adjacency g);
  g

let gnm_setup w =
  let pins = Pools.read_pins w in
  let text = Graph_io.to_string (Pools.gnm_graph ()) in
  let inputs =
    List.map
      (fun (p : Pools.pin) ->
        match (Pools.gnm_query p.idx, p.fields) with
        | Some q, [ tuple; expected ] ->
          let qt = Crpq.to_string q in
          Pools.check_key w p (qt ^ "\t" ^ tuple);
          (qt, List.map int_of_string (String.split_on_char ',' tuple), expected)
        | _ -> failwith ("bad st-gnm pin " ^ string_of_int p.idx))
      pins
  in
  fun () ->
    let g = graph_setup text in
    List.map
      (fun (qt, tuple, expected) ->
        let q = Crpq.parse qt in
        eval_op ~text:qt ~expected g q ~run_q:(fun g q -> string_of_bool (Eval.check Semantics.St q g tuple)))
      inputs

let strategy_slug sem q1 q2 =
  let name = Containment.strategy_name sem q1 q2 in
  let has prefix = String.starts_with ~prefix name in
  if has "trivial" then "trivial"
  else if has "cq-" then "cq_cq"
  else if has "regular" then "rpq"
  else if has "finite" then "finite_lhs"
  else if has "abstraction" then "qinj_abstraction"
  else if has "window" then "f7"
  else "bounded"

let strategies = [ "trivial"; "cq_cq"; "rpq"; "finite_lhs"; "qinj_abstraction"; "f7"; "bounded" ]

let contain_setup w =
  let pins = Pools.read_pins w in
  let inputs =
    List.map
      (fun (p : Pools.pin) ->
        match (Pools.contain_pair p.idx, p.fields) with
        | Some ((sem, _, _) as pair), [ expected ] ->
          Pools.check_key w p (Pools.contain_text pair);
          let _, q1, q2 = pair in
          (sem, Crpq.to_string q1, Crpq.to_string q2, expected)
        | _ -> failwith ("bad contain pin " ^ string_of_int p.idx))
      pins
  in
  fun () ->
    List.map
      (fun (sem, t1, t2, expected) ->
        let q1 = Crpq.parse t1 and q2 = Crpq.parse t2 in
        let decide () = Pools.verdict_sig (Containment.decide sem q1 q2) in
        {
          expected;
          run = decide;
          traced =
            (fun l ->
              ignore (probe l "crpq.parse" (fun () -> (Crpq.parse t1, Crpq.parse t2)));
              l.layer "nfa.build" (fun () -> build_nfas q1; build_nfas q2);
              l.layer "containment.decide" (fun () -> with_gc decide));
          strategy = lazy (strategy_slug sem q1 q2);
        })
      inputs

(* ------------------------------------------------------------------ *)
(* Closed loops                                                        *)
(* ------------------------------------------------------------------ *)

type phase = {
  lat : float array;  (** per-op latency, ms, in completion order *)
  attempted : int;
  failed : int;
  t0 : int64;
  t1 : int64;  (** end of the last op *)
  elapsed_s : float;  (** [t1 - t0], summed over merged phases *)
  done_ops : int list;  (** pool indices run *)
  ends : (int * int * int64) array;  (** (sequence number, pool index, completion time), in completion order *)
}

let phase ?(ends = []) ~lat ~attempted ~failed ~t0 ~t1 ~done_ops () =
  {
    ends = Array.of_list (List.rev ends);
    lat = Array.of_list (List.rev lat);
    attempted;
    failed;
    t0;
    t1;
    elapsed_s = Measure.ms_between t0 t1 /. 1000.0;
    done_ops;
  }

let merge = function
  | [] -> invalid_arg "merge"
  | first :: _ as phases ->
    let last = List.nth phases (List.length phases - 1) in
    let sum f = List.fold_left (fun acc p -> acc + f p) 0 phases in
    {
      lat = Array.concat (List.map (fun p -> p.lat) phases);
      attempted = sum (fun p -> p.attempted);
      failed = sum (fun p -> p.failed);
      t0 = first.t0;
      t1 = last.t1;
      elapsed_s = List.fold_left (fun acc p -> acc +. p.elapsed_s) 0.0 phases;
      done_ops = List.concat_map (fun p -> p.done_ops) phases;
      ends = Array.concat (List.map (fun p -> p.ends) phases);
    }

let ops_per_s ph = float_of_int (Array.length ph.lat) /. ph.elapsed_s

let mismatches = ref 0

let note_mismatch what expected got =
  incr mismatches;
  if !mismatches <= 5 then
    Printf.eprintf "perfbench: %s: expected %s, got %s\n%!" what expected got

(* The seed-chosen replay order: [order ~seed n i] is the pool index of
   the [i]-th op.  Each pass through the pool is its own permutation, so
   over a run every op meets many different neighbours; ops share
   caches, so an op's cost can depend on the ones run before it, and one
   permutation replayed many times would make p50 a property of the
   seed. *)
let order ~seed n =
  let passes = Hashtbl.create 16 in
  let permutation pass =
    let rng = Random.State.make [| seed; pass |] in
    let a = Array.init n Fun.id in
    for i = n - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done;
    a
  in
  fun i ->
    let pass = i / n in
    let perm =
      match Hashtbl.find_opt passes pass with
      | Some a -> a
      | None ->
        let a = permutation pass in
        Hashtbl.replace passes pass a;
        a
    in
    perm.(i mod n)

let local_loop ~(ops : op array) ~ord ~start ~seconds ~exec =
  let lat = ref [] and done_ops = ref [] and ends = ref [] in
  let failed = ref 0 and i = ref start in
  let t0 = Measure.now_ns () in
  let t_end = Int64.add t0 (Int64.of_float (seconds *. 1e9)) in
  let t1 = ref t0 in
  while Int64.compare !t1 t_end < 0 do
    let k = ord !i in
    let op = ops.(k) in
    let s = Measure.now_ns () in
    let got = try exec op with e -> "error: " ^ Printexc.to_string e in
    t1 := Measure.now_ns ();
    lat := Measure.ms_between s !t1 :: !lat;
    ends := (!i, k, !t1) :: !ends;
    done_ops := k :: !done_ops;
    if got <> op.expected then begin
      incr failed;
      note_mismatch (Printf.sprintf "op %d" k) op.expected got
    end;
    incr i
  done;
  phase ~ends:!ends ~lat:!lat ~attempted:(!i - start) ~failed:!failed ~t0 ~t1:!t1 ~done_ops:!done_ops ()

(* ------------------------------------------------------------------ *)
(* serve                                                               *)
(* ------------------------------------------------------------------ *)

type daemon = {
  srv : Serve.Server.t;
  loop : Thread.t;
  client : Serve.Client.t;
}

(* Set-up as the daemon pays it: load the graph from edge-list text,
   start the server (one worker) on one end of a socketpair and read its
   greeting on the other.  No deadline can trip: the request cap is far
   beyond any run. *)
let start_daemon text =
  let g = Graph_io.of_string text in
  let cfg =
    Serve.Server.config ~workers:1 ~queue_bound:8 ~timeout_ms:3_600_000 ~answer_cap:1_000_000
      ~graphs:[ ("kg", g) ] ()
  in
  let srv = Serve.Server.create cfg in
  let sfd, cfd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let loop = Thread.create (fun () -> Serve.Server.run srv ~adopt:[ sfd ] ()) () in
  let client = Serve.Client.of_fd cfd in
  (match Serve.Client.greeting ~timeout_ms:60_000 client with
  | Ok _ -> ()
  | Error e -> failwith ("no greeting from the daemon: " ^ e));
  { srv; loop; client }

let stop_daemon d =
  Serve.Server.shutdown d.srv;
  Thread.join d.loop;
  Serve.Client.close d.client

let to_request id (r : Pools.request) =
  Serve.Protocol.request ~id:(Obs.Json.Int id) ~sem:r.sem ?query:r.query ?lhs:r.lhs ?rhs:r.rhs
    ~graph:"kg" r.op

(* The answer in a response body, in the same form as the pins. *)
let response_sig (resp : Serve.Protocol.response) =
  let body = Obs.Json.Obj resp.body in
  match (resp.status, resp.op) with
  | Serve.Protocol.Ok_, Some Serve.Protocol.Eval ->
    let tuples =
      Option.value (Option.bind (Obs.Json.member "tuples" body) Obs.Json.to_list) ~default:[]
      |> List.map (fun t ->
             List.filter_map Obs.Json.to_int (Option.value (Obs.Json.to_list t) ~default:[]))
    in
    Pools.answers_sig tuples
  | Serve.Protocol.Ok_, Some Serve.Protocol.Contain -> (
    match Obs.Json.member "verdict" body with Some (Obs.Json.String v) -> v | _ -> "no verdict")
  | Serve.Protocol.Ok_, Some Serve.Protocol.Optimize -> (
    match Option.bind (Obs.Json.member "result" body) (Obs.Json.member "after") with
    | Some (Obs.Json.String q) -> q
    | _ -> "no result")
  | st, _ -> "status " ^ Serve.Protocol.status_to_string st

(* Closed loop with one request outstanding on the one connection, so a
   request's latency is its own round trip.  [on_send]/[on_recv] let the
   traced phase record client spans. *)
let serve_loop d ~(pool : (Pools.request * string) array) ~ord ~start ~seconds ~on_send ~on_recv =
  let lat = ref [] and done_ops = ref [] and ends = ref [] in
  let failed = ref 0 and i = ref start in
  let t0 = Measure.now_ns () in
  let t_end = Int64.add t0 (Int64.of_float (seconds *. 1e9)) in
  let t1 = ref t0 in
  while Int64.compare !t1 t_end < 0 do
    let id = !i in
    let k = ord id in
    let r, expected = pool.(k) in
    let s = Measure.now_ns () in
    (match Serve.Client.send d.client (to_request id r) with
    | Ok () -> ()
    | Error e -> failwith ("send: " ^ e));
    let r0 = Measure.now_ns () in
    on_send id s r0;
    let resp =
      match Serve.Client.recv d.client with Ok r -> r | Error e -> failwith ("recv: " ^ e)
    in
    if resp.Serve.Protocol.id <> Obs.Json.Int id then failwith "response to another request";
    let got = response_sig resp in
    t1 := Measure.now_ns ();
    on_recv id r0 !t1;
    lat := Measure.ms_between s !t1 :: !lat;
    ends := (id, k, !t1) :: !ends;
    done_ops := k :: !done_ops;
    if got <> expected then begin
      incr failed;
      note_mismatch (Printf.sprintf "request %d" k) expected got
    end;
    incr i
  done;
  phase ~ends:!ends ~lat:!lat ~attempted:(!i - start) ~failed:!failed ~t0 ~t1:!t1 ~done_ops:!done_ops ()

let serve_pool w =
  let reqs = Pools.serve_candidates () in
  Array.of_list
    (List.map
       (fun (p : Pools.pin) ->
         let r = reqs.(p.idx) in
         Pools.check_key w p (Pools.request_text r);
         (r, List.hd p.fields))
       (Pools.read_pins w))

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let end_to_end ~setup_s (ph : phase) ~ok =
  let s = Measure.sorted_copy ph.lat in
  [
    ("setup_s", setup_s, "s");
    ("ops_per_s", ops_per_s ph, "1/s");
    ("p50_ms", Measure.percentile s 0.5, "ms");
    ("p90_ms", Measure.percentile s 0.9, "ms");
    ("ok_frac", float_of_int ok /. float_of_int (max 1 ph.attempted), "ratio");
    ("peak_rss_mb", Measure.peak_rss_mb (), "MiB");
  ]

let counter snap name =
  match List.assoc_opt name snap with Some (Obs.Metrics.Counter v) -> float_of_int v | _ -> 0.0

let sum_counters snap pred =
  List.fold_left
    (fun acc (k, v) ->
      match v with Obs.Metrics.Counter c when pred k -> acc +. float_of_int c | _ -> acc)
    0.0 snap

let ratio a b = if b > 0.0 then a /. b else 0.0

(* Per-layer metrics of the traced phases.  [total] reads per-layer span
   totals (ms); [eval_ms] the total time of the evaluation calls;
   [snap] is the Obs.Metrics delta over them; [nops] the ops they
   cover; [answers] the answer tuples they returned. *)
let per_layer ~total ~eval_ms ~snap ~nops ~answers ~strategy_counts ~ncontain ~extra =
  let per x = x /. float_of_int (max 1 nops) in
  let c = counter snap in
  let among prefix suffix k = String.starts_with ~prefix k && String.ends_with ~suffix k in
  let hits = sum_counters snap (among "cache." ".hits") in
  let misses = sum_counters snap (among "cache." ".misses") in
  let dispatch = sum_counters snap (among "bulk.dispatch." "") in
  let pointwise = sum_counters snap (among "bulk.dispatch." ".pointwise") in
  let relation = total "bulk_rpq.relation" and eval = eval_ms in
  [
    ("crpq.parse_ms", per (total "crpq.parse"), "ms");
    ("nfa.build_ms", per (total "nfa.build"), "ms");
    ("cache.hit_ratio", ratio hits (hits +. misses), "ratio");
    ("cache.misses", per misses, "count/op");
    ("bulk_rpq.relation_ms", per relation, "ms");
    ("bulk_rpq.relation_share", ratio relation eval, "ratio");
    ("bulk_rpq.sweeps", per (c "bulk.sweeps"), "count/op");
    ("bulk_rpq.sparse_frac", ratio (c "bulk.sweep_sparse") (c "bulk.sweeps"), "ratio");
    ("bulk_rpq.frontier_bits", per (c "bulk.frontier_bits"), "count/op");
    ("bulk_rpq.bits_scattered", per (c "bulk.bits_scattered"), "count/op");
    ("bulk_rpq.pointwise_frac", ratio pointwise dispatch, "ratio");
    ("path_search.product_states", per (c "path_search.product_states"), "count/op");
    ("eval.join_ms", per (Float.max 0.0 (eval -. relation)), "ms");
    ("eval.candidates", per (c "eval.candidates_tried"), "count/op");
    ("eval.candidates_per_answer", ratio (c "eval.candidates_tried") (float_of_int answers), "ratio");
    ("eval.paths_threaded", per (c "eval.paths_threaded"), "count/op");
    ("path_search.simple_backtracks", per (c "path_search.simple_backtracks"), "count/op");
    ("containment.expansions", per (c "containment.expansions_enumerated"), "count/op");
    ("containment.counterexamples", per (c "containment.counterexamples"), "count/op");
    ("containment_qinj.abstraction_states", per (c "qinj.abstraction_states"), "count/op");
    ("morphism.candidates", per (c "morphism.candidates_tried"), "count/op");
    ("nfa.product_states", per (c "nfa.product_states"), "count/op");
    ("f7.window_words", per (c "f7.window_words"), "count/op");
  ]
  @ List.map
      (fun s ->
        ( Printf.sprintf "containment.strategy.%s_frac" s,
          ratio (float_of_int (Option.value (Hashtbl.find_opt strategy_counts s) ~default:0)) (float_of_int ncontain),
          "ratio" ))
      strategies
  @ [
      ("analysis.certificates", per (c "analysis.certificates_checked"), "count/op");
      ("guard.checkpoints", per (c "guard.checkpoints"), "count/op");
      ("gc.alloc_mwords", per (!gc_words /. 1e6), "Mwords/op");
      ("gc.major_collections", per (float_of_int !gc_majors), "count/op");
    ]
  @ extra

(* ------------------------------------------------------------------ *)
(* Runs                                                                *)
(* ------------------------------------------------------------------ *)

type outcome = {
  metrics : (string * float * string) list;
  attempted : int;
  failed : int;
  checks : string list;  (** failed benchmark checks *)
  setup_times : float array;  (** seconds, one per set-up *)
  latencies : float array;  (** the untraced latencies *)
  ends : (int * int * int64) array;  (** the untraced ops' sequence numbers, pool indices and completion times *)
  spans : Measure.span array;
}

(* A run is [rounds] rounds of: set up, then run the closed loop for
   [seconds / rounds].  Each set-up starts from a settled heap (a full
   major collection first, outside any timing), and [setup_s] is the
   median of all set-up times.  One set-up takes milliseconds, so a
   single one would record the machine at one moment; spread over the
   run, the set-ups sample it as often as the ops do.  A round may set
   up [setups] times, tearing down all but the last, where one set-up is
   too short for nine to give a steady median.  The pool order carries
   on from round to round. *)
let rounds = 9

let in_rounds ?(setups = 1) ?(before_round = ignore) ~setup ~teardown ~seconds round =
  let times = Array.make (rounds * setups) 0.0 in
  let timed_setup i =
    Gc.full_major ();
    let t0 = Measure.now_ns () in
    let st = setup () in
    times.(i) <- Measure.ms_between t0 (Measure.now_ns ()) /. 1000.0;
    st
  in
  let results =
    List.init rounds (fun k ->
        before_round k;
        for j = 1 to setups - 1 do
          teardown (timed_setup ((k * setups) + j))
        done;
        let st = timed_setup (k * setups) in
        Fun.protect
          ~finally:(fun () -> teardown st)
          (fun () -> round st (seconds /. float_of_int rounds)))
  in
  (times, results)

let min_ops = 100

(* Answer tuples behind a pinned answer: a point check's [true]/[false]
   or an answer set's [count:hash]; verdicts and rewritten queries have
   none. *)
let answers_of_expected = function
  | "true" -> 1
  | "false" -> 0
  | e -> Option.value (Pools.answers_of_sig e) ~default:0

let shape_checks name sorted =
  List.filter_map
    (fun (label, q) ->
      let p = Measure.percentile sorted q in
      if Measure.between_modes sorted p then
        Some (Printf.sprintf "%s: %s = %.3f ms falls in an empty gap between latency modes" name label p)
      else None)
    [ ("p50", 0.5); ("p90", 0.9) ]

(* Coverage over several traced phases: the covered share of their
   summed length, and the violations found. *)
let coverage_checks phases =
  let covered, total, bad =
    List.fold_left
      (fun (c, t, b) (rec_, (ph : phase)) ->
        let ns, bad = Measure.coverage (Measure.spans rec_) ~t0:ph.t0 in
        (c +. ns, t +. Int64.to_float (Int64.sub ph.t1 ph.t0), b @ bad))
      (0.0, 0.0, []) phases
  in
  let frac = ratio covered total in
  ( frac,
    (if frac < 0.95 then
       [ Printf.sprintf "op spans cover %.1f%% of the timed phases (< 95%%)" (100.0 *. frac) ]
     else [])
    @ List.filteri (fun i _ -> i < 5) bad )

let untraced_outcome ~setup_times (ph : phase) =
  {
    metrics = end_to_end ~setup_s:(Measure.median setup_times) ph ~ok:(ph.attempted - ph.failed);
    attempted = ph.attempted;
    failed = ph.failed;
    checks =
      (if Array.length ph.lat < min_ops then
         [ Printf.sprintf "only %d ops completed (< %d)" (Array.length ph.lat) min_ops ]
       else []);
    setup_times;
    latencies = ph.lat;
    ends = ph.ends;
    spans = [||];
  }

let count_strategies strategy_of done_ops =
  let counts = Hashtbl.create 8 and n = ref 0 in
  List.iter
    (fun k ->
      let s = strategy_of k in
      if s <> "" then begin
        incr n;
        Hashtbl.replace counts s (1 + Option.value (Hashtbl.find_opt counts s) ~default:0)
      end)
    done_ops;
  (counts, !n)

(* Obs.Metrics is on only while traced ops run, so one snapshot diff
   around the whole run counts exactly their work. *)
let with_counters f =
  let before = Obs.Metrics.snapshot () in
  let v = f () in
  (v, Obs.Metrics.diff before (Obs.Metrics.snapshot ()))

let counting f =
  Obs.Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.Metrics.set_enabled false) f

let run_local ~name ~setup ~seed ~seconds ~trace =
  let cursor = ref 0 and pool = ref [||] in
  let setup () =
    let ops = Array.of_list (setup ()) in
    pool := ops;
    ops
  in
  let loop ops ~seconds ~exec =
    let ph = local_loop ~ops ~ord:(order ~seed (Array.length ops)) ~start:!cursor ~seconds ~exec in
    cursor := !cursor + ph.attempted;
    ph
  in
  let plain ops ~seconds = loop ops ~seconds ~exec:(fun op -> op.run ()) in
  if not trace then begin
    let setup_times, phases = in_rounds ~setup ~teardown:ignore ~seconds (fun ops seconds -> plain ops ~seconds) in
    untraced_outcome ~setup_times (merge phases)
  end
  else begin
    (* each round: half untraced (the base of trace.overhead_frac), half
       traced with a span per layer call *)
    let (setup_times, results), snap =
      with_counters (fun () ->
          in_rounds ~setup ~teardown:ignore ~seconds (fun ops seconds ->
              let p = plain ops ~seconds:(seconds /. 2.0) in
              let rec_ = Measure.recorder () in
              let t =
                counting (fun () ->
                    loop ops ~seconds:(seconds /. 2.0) ~exec:(fun op ->
                        Measure.op_span rec_ name (fun id ->
                            op.traced { layer = (fun n f -> Measure.layer rec_ id n f) })))
              in
              (p, (rec_, t))))
    in
    let plain = merge (List.map fst results) and traced = merge (List.map (fun (_, (_, t)) -> t) results) in
    let spans = Array.concat (List.map (fun (_, (r, _)) -> Measure.spans r) results) in
    let total = Measure.layer_totals spans in
    let ops = !pool in
    let answers = List.fold_left (fun acc k -> acc + answers_of_expected ops.(k).expected) 0 traced.done_ops in
    let strategy_counts, ncontain = count_strategies (fun k -> Lazy.force ops.(k).strategy) traced.done_ops in
    let cover, cover_checks = coverage_checks (List.map snd results) in
    let extra =
      [
        ("server.service_ms", 0.0, "ms");
        ("server.service_ms.eval", 0.0, "ms");
        ("server.service_ms.contain", 0.0, "ms");
        ("server.service_ms.optimize", 0.0, "ms");
        ("server.wait_ms", 0.0, "ms");
        ("analysis.optimize_ms", 0.0, "ms");
        ("trace.overhead_frac", 1.0 -. ratio (ops_per_s traced) (ops_per_s plain), "ratio");
        ("trace.coverage_frac", cover, "ratio");
      ]
    in
    {
      metrics =
        per_layer ~total ~eval_ms:(total "eval") ~snap ~nops:(Array.length traced.lat) ~answers
          ~strategy_counts ~ncontain ~extra;
      attempted = plain.attempted + traced.attempted;
      failed = plain.failed + traced.failed;
      checks = cover_checks @ shape_checks name (Measure.sorted_copy plain.lat);
      setup_times;
      latencies = plain.lat;
      ends = plain.ends;
      spans;
    }
  end

(* One request through the serving engine directly, with a span per
   layer call. *)
let direct_request d rec_ id (r : Pools.request) =
  Measure.op_span rec_ "serve.request" (fun op ->
      let l = { layer = (fun n f -> Measure.layer rec_ op n f) } in
      let parse = Option.map (fun t -> probe l "crpq.parse" (fun () -> Crpq.parse t)) in
      let qs = List.filter_map Fun.id [ parse r.query; parse r.lhs; parse r.rhs ] in
      l.layer "nfa.build" (fun () -> List.iter build_nfas qs);
      l.layer
        ("server.service." ^ Serve.Protocol.op_to_string r.op)
        (fun () -> with_gc (fun () -> response_sig (Serve.Server.handle_request d.srv (to_request id r)))))

let direct_loop d ~pool ~ord ~start ~seconds rec_ =
  let lat = ref [] and done_ops = ref [] and failed = ref 0 and n = ref 0 in
  let t0 = Measure.now_ns () in
  let t_end = Int64.add t0 (Int64.of_float (seconds *. 1e9)) in
  let t1 = ref t0 in
  while Int64.compare !t1 t_end < 0 do
    let k = ord (start + !n) in
    let r, expected = pool.(k) in
    let s = Measure.now_ns () in
    let got = direct_request d rec_ !n r in
    t1 := Measure.now_ns ();
    lat := Measure.ms_between s !t1 :: !lat;
    done_ops := k :: !done_ops;
    if got <> expected then begin
      incr failed;
      note_mismatch (Printf.sprintf "direct request %d" k) expected got
    end;
    incr n
  done;
  phase ~lat:!lat ~attempted:!n ~failed:!failed ~t0 ~t1:!t1 ~done_ops:!done_ops ()

(* A daemon starts in well under a millisecond, so each round starts
   [serve_setups] of them and keeps the last. *)
let serve_setups = 5

(* Each serve round runs on one CPU, taking the allowed CPUs in turn.
   The daemon runs a worker domain beside the main domain, and every
   minor collection of the worker (about a thousand a second on a
   2-vCPU VM) is a stop-the-world handshake with the main domain, whose
   threads sit blocked in [read]/[select].  Spread over two CPUs, each
   handshake wakes the idle one, and on a shared VM how long that takes
   depends on the host, not on the program.  On one CPU, with one
   request outstanding, exactly one thread is runnable at a time and the
   CPU never idles.  Taking the CPUs in turn, a run samples the speed of
   each, not of one. *)
let serve_round_cpu k =
  match cpus_at_start with
  | [] | [ _ ] -> ()
  | cpus -> pin_process (List.nth cpus (k mod List.length cpus))

let run_serve ~seed ~seconds ~trace =
  let pool = serve_pool "serve" in
  let text = Graph_io.to_string (fst (Pools.kg_graph ())) in
  let ord = order ~seed (Array.length pool) and cursor = ref 0 in
  let advance (ph : phase) =
    cursor := !cursor + ph.attempted;
    ph
  in
  let no_span _ _ _ = () in
  let loop ?(on_send = no_span) ?(on_recv = no_span) d ~seconds =
    advance (serve_loop d ~pool ~ord ~start:!cursor ~seconds ~on_send ~on_recv)
  in
  let setup () = start_daemon text and teardown = stop_daemon in
  if not trace then begin
    let setup_times, phases =
      in_rounds ~setups:serve_setups ~before_round:serve_round_cpu ~setup ~teardown ~seconds
        (fun d seconds -> loop d ~seconds)
    in
    untraced_outcome ~setup_times (merge phases)
  end
  else begin
    (* each round: a third untraced; a third with client spans per
       request over the socket (phase A); a third sending the same
       requests through Serve.Server.handle_request directly, with layer
       spans and counters on (phase B) *)
    let (setup_times, results), snap =
      with_counters (fun () ->
          in_rounds ~setups:serve_setups ~before_round:serve_round_cpu ~setup ~teardown ~seconds
            (fun d seconds ->
              let third = seconds /. 3.0 in
              let p = loop d ~seconds:third in
              let rec_a = Measure.recorder () and op_ids = Hashtbl.create 16 in
              let a =
                loop d ~seconds:third
                  ~on_send:(fun id s e ->
                    let op = Measure.open_op rec_a "serve.request" s in
                    Measure.child rec_a op "client.send" s e;
                    Hashtbl.replace op_ids id op)
                  ~on_recv:(fun id r0 r1 ->
                    let op = Hashtbl.find op_ids id in
                    Hashtbl.remove op_ids id;
                    Measure.child rec_a op "client.recv" r0 r1;
                    Measure.close_op rec_a op r1)
              in
              let rec_b = Measure.recorder () in
              let b =
                advance (counting (fun () -> direct_loop d ~pool ~ord ~start:!cursor ~seconds:third rec_b))
              in
              (p, (rec_a, a), (rec_b, b))))
    in
    let plain = merge (List.map (fun (p, _, _) -> p) results) in
    let a = merge (List.map (fun (_, (_, a), _) -> a) results) in
    let b = merge (List.map (fun (_, _, (_, b)) -> b) results) in
    let cover, cover_checks = coverage_checks (List.concat_map (fun (_, a, b) -> [ a; b ]) results) in
    let total =
      Measure.layer_totals (Array.concat (List.map (fun (_, _, (r, _)) -> Measure.spans r) results))
    in
    let service kind = total ("server.service." ^ kind) in
    let kinds = [ "eval"; "contain"; "optimize" ] in
    let count kind =
      List.length
        (List.filter (fun k -> Serve.Protocol.op_to_string (fst pool.(k)).op = kind) b.done_ops)
    in
    let nb = Array.length b.lat in
    let per x = x /. float_of_int (max 1 nb) in
    let all_service = List.fold_left (fun acc k -> acc +. service k) 0.0 kinds in
    let mean_latency = ratio (Array.fold_left ( +. ) 0.0 a.lat) (float_of_int (Array.length a.lat)) in
    let answers = List.fold_left (fun acc k -> acc + answers_of_expected (snd pool.(k))) 0 b.done_ops in
    let strategy_counts, ncontain =
      count_strategies
        (fun k ->
          match fst pool.(k) with
          | { op = Serve.Protocol.Contain; sem; lhs = Some l; rhs = Some r; _ } ->
            strategy_slug sem (Crpq.parse l) (Crpq.parse r)
          | _ -> "")
        b.done_ops
    in
    let extra =
      [ ("server.service_ms", per all_service, "ms") ]
      @ List.map
          (fun kind -> ("server.service_ms." ^ kind, ratio (service kind) (float_of_int (count kind)), "ms"))
          kinds
      @ [
          ("server.wait_ms", mean_latency -. per all_service, "ms");
          ("analysis.optimize_ms", per (service "optimize"), "ms");
          ("trace.overhead_frac", 1.0 -. ratio (ops_per_s a) (ops_per_s plain), "ratio");
          ("trace.coverage_frac", cover, "ratio");
        ]
    in
    {
      metrics =
        per_layer ~total ~eval_ms:(service "eval") ~snap ~nops:nb ~answers ~strategy_counts ~ncontain
          ~extra;
      attempted = plain.attempted + a.attempted + b.attempted;
      failed = plain.failed + a.failed + b.failed;
      checks = cover_checks @ shape_checks "serve" (Measure.sorted_copy plain.lat);
      setup_times;
      latencies = plain.lat;
      ends = plain.ends;
      spans =
        Array.concat
          (List.concat_map (fun (_, (ra, _), (rb, _)) -> [ Measure.spans ra; Measure.spans rb ]) results);
    }
  end

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

let finite x = if Float.is_finite x then x else 0.0

let metrics_json ms =
  Obs.Json.Obj
    (List.map
       (fun (name, v, unit) ->
         (name, Obs.Json.Obj [ ("value", Obs.Json.Float (finite v)); ("unit", Obs.Json.String unit) ]))
       ms)

let out_dir = ".perfbench"

let write_file path s =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let main_run ~workload ~seed ~seconds ~trace ~recorded =
  let o =
    match workload with
    | "st-gnm" -> run_local ~name:workload ~setup:(gnm_setup workload) ~seed ~seconds ~trace
    | "contain" -> run_local ~name:workload ~setup:(contain_setup workload) ~seed ~seconds ~trace
    | "serve" -> run_serve ~seed ~seconds ~trace
    | w -> fail "unknown workload %S (known: %s)" w (String.concat ", " workloads)
  in
  let sorted = Measure.sorted_copy o.latencies in
  Format.eprintf "%s seed %d trace %b: %d ops, %d failed; latency histogram:@.%a" workload seed trace
    o.attempted o.failed Measure.pp_histogram sorted;
  List.iter (fun c -> Printf.eprintf "perfbench: check failed: %s\n%!" c) o.checks;
  let correct = o.failed = 0 && o.checks = [] in
  let result =
    Obs.Json.Obj
      [
        ("correct", Obs.Json.Bool correct);
        ("attempted", Obs.Json.Int o.attempted);
        ("failed", Obs.Json.Int o.failed);
        ("metrics", metrics_json o.metrics);
      ]
  in
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let stem = Printf.sprintf "%s/%s-seed%d-trace%d" out_dir workload seed (if trace then 1 else 0) in
  write_file (stem ^ ".json")
    (Obs.Json.to_string
       (Obs.Json.Obj
          [
            ("workload", Obs.Json.String workload);
            ("seed", Obs.Json.Int seed);
            ("seconds", Obs.Json.Float seconds);
            ("trace", Obs.Json.Bool trace);
            ("ocaml_version", Obs.Json.String Sys.ocaml_version);
            ("nproc", Obs.Json.Int (Domain.recommended_domain_count ()));
            ("cpus", Obs.Json.List (List.map (fun c -> Obs.Json.Int c) cpus_at_start));
            ( "recorded_env",
              Obs.Json.Obj
                (List.filter_map
                   (fun kv ->
                     match String.index_opt kv '=' with
                     | Some i -> Some (String.sub kv 0 i, Obs.Json.String (String.sub kv (i + 1) (String.length kv - i - 1)))
                     | None -> None)
                   recorded) );
            ("effective_config", effective_config ());
            ("checks_failed", Obs.Json.List (List.map (fun c -> Obs.Json.String c) o.checks));
            ("setup_s", Obs.Json.List (Array.to_list (Array.map (fun x -> Obs.Json.Float x) o.setup_times)));
            ("latencies_ms", Obs.Json.List (Array.to_list (Array.map (fun x -> Obs.Json.Float x) o.latencies)));
            ( "ends_ms",
              let base = if o.ends = [||] then 0L else (fun (_, _, t) -> t) o.ends.(0) in
              Obs.Json.List
                (Array.to_list
                   (Array.map
                      (fun (i, k, t) ->
                        Obs.Json.List [ Obs.Json.Int i; Obs.Json.Int k; Obs.Json.Float (Measure.ms_between base t) ])
                      o.ends)) );
            ("result", result);
          ])
    ^ "\n");
  if trace then Measure.write_jsonl (stem ^ ".spans.jsonl") o.spans;
  print_endline (Obs.Json.to_string result)

let () =
  let argv = Sys.argv in
  pin_config argv;
  let rec strip_recorded = function
    | "--recorded-env" :: e :: rest -> (String.split_on_char ';' e, snd (strip_recorded rest))
    | a :: rest ->
      let r, rest = strip_recorded rest in
      (r, a :: rest)
    | [] -> ([], [])
  in
  let recorded, args = strip_recorded (List.tl (Array.to_list argv)) in
  match args with
  | "pin" :: ws -> List.iter Pin.run (if ws = [] then workloads else ws)
  | args ->
    let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref false in
    let rec go = function
      | "--workload" :: w :: rest -> workload := w; go rest
      | "--seed" :: s :: rest -> seed := int_of_string s; go rest
      | "--seconds" :: s :: rest -> seconds := float_of_string s; go rest
      | "--trace" :: t :: rest -> trace := (t = "1"); go rest
      | [] -> ()
      | a :: _ -> fail "unexpected argument %S" a
    in
    (try go args with Failure _ -> fail "malformed arguments");
    if not (List.mem !workload workloads) then
      fail "--workload must be one of %s" (String.concat ", " workloads);
    (try main_run ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:!trace ~recorded
     with Failure msg | Sys_error msg -> fail "%s" msg)
