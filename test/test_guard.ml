(* The resource-governance layer: fuel/deadline/depth/cancellation trip
   semantics, the chaos fault injector, the run/supervise boundaries,
   and the end-to-end guarantee that the deciders degrade to a
   structured Unknown instead of hanging or raising.

   Chaos state is pinned explicitly in every test (armed or disarmed),
   so this binary is deterministic even when the whole suite runs under
   INJCRPQ_CHAOS (the CI chaos step). *)

let check = Alcotest.check

let no_chaos f () =
  Guard.Chaos.disarm ();
  f ()

let with_chaos rules f () =
  Guard.Chaos.arm rules;
  Fun.protect ~finally:Guard.Chaos.disarm f

let trip_reason f =
  match f () with _ -> None | exception Guard.Trip t -> Some t

(* ------------------------------------------------------------------ *)
(* Core trip semantics                                                 *)
(* ------------------------------------------------------------------ *)

let test_unguarded_noop () =
  (* no ambient guard: checkpoints and descends are transparent *)
  check Alcotest.bool "no ambient guard" true (Guard.active () = None);
  Guard.checkpoint "test.nowhere";
  check Alcotest.int "descend transparent" 5
    (Guard.descend "test.nowhere" (fun () -> 5))

let test_fuel () =
  let g = Guard.create ~fuel:3 () in
  Guard.with_guard g (fun () ->
      for _ = 1 to 3 do
        Guard.checkpoint "test.fuel"
      done);
  (* the budget is spent: one more checkpoint trips *)
  (match
     trip_reason (fun () ->
         Guard.with_guard g (fun () -> Guard.checkpoint "test.fuel"))
   with
  | Some { Guard.site = "test.fuel"; reason = Guard.Fuel_exhausted { budget } }
    ->
    check Alcotest.int "budget reported" 3 budget
  | Some t -> Alcotest.failf "wrong trip: %s" (Guard.trip_to_string t)
  | None -> Alcotest.fail "fuel 3 must trip on the 4th checkpoint");
  (* the trip is recorded on the guard *)
  match Guard.last_trip g with
  | Some { Guard.reason = Guard.Fuel_exhausted _; _ } -> ()
  | _ -> Alcotest.fail "last_trip not recorded"

let test_fuel_zero () =
  let g = Guard.create ~fuel:0 () in
  match
    trip_reason (fun () ->
        Guard.with_guard g (fun () -> Guard.checkpoint "test.fuel0"))
  with
  | Some { Guard.reason = Guard.Fuel_exhausted { budget = 0 }; _ } -> ()
  | _ -> Alcotest.fail "fuel 0 must trip at the first checkpoint"

let test_deadline_fake_clock () =
  (* drive the guard's clock by hand: trips exactly when the source
     passes start + budget *)
  let now = ref 0L in
  Obs.Clock.set_source ~name:"test-fake" (fun () -> !now);
  Fun.protect ~finally:Obs.Clock.reset_source (fun () ->
      let g = Guard.create ~deadline_ms:5 () in
      Guard.with_guard g (fun () ->
          Guard.checkpoint "test.deadline";
          now := 4_999_999L;
          Guard.checkpoint "test.deadline";
          now := 5_000_000L;
          match trip_reason (fun () -> Guard.checkpoint "test.deadline") with
          | Some
              {
                Guard.site = "test.deadline";
                reason = Guard.Deadline_exceeded { budget_ms; elapsed_ns };
              } ->
            check Alcotest.int "budget" 5 budget_ms;
            check Alcotest.bool "elapsed" true (elapsed_ns = 5_000_000L)
          | _ -> Alcotest.fail "deadline must trip once the clock passes it"))

let test_deadline_zero () =
  (* a 0ms budget trips at the very first checkpoint, on the real clock *)
  let g = Guard.create ~deadline_ms:0 () in
  match
    trip_reason (fun () ->
        Guard.with_guard g (fun () -> Guard.checkpoint "test.dl0"))
  with
  | Some { Guard.reason = Guard.Deadline_exceeded _; _ } -> ()
  | _ -> Alcotest.fail "deadline 0 must trip at the first checkpoint"

let test_depth () =
  let g = Guard.create ~max_depth:2 () in
  Guard.with_guard g (fun () ->
      Guard.descend "test.depth" (fun () ->
          Guard.descend "test.depth" (fun () -> ())));
  (* the ceiling is restored on the way out, so the same nesting works
     again; one level deeper trips *)
  match
    trip_reason (fun () ->
        Guard.with_guard g (fun () ->
            Guard.descend "test.depth" (fun () ->
                Guard.descend "test.depth" (fun () ->
                    Guard.descend "test.depth" (fun () -> ())))))
  with
  | Some { Guard.reason = Guard.Depth_exceeded { limit = 2 }; _ } -> ()
  | _ -> Alcotest.fail "third nested descend must trip"

let test_cancel () =
  let tok = Guard.Cancel.create ~label:"driver" () in
  check Alcotest.bool "fresh token" false (Guard.Cancel.cancelled tok);
  let g = Guard.create ~cancel:tok () in
  match
    trip_reason (fun () ->
        Guard.with_guard g (fun () ->
            Guard.checkpoint "test.cancel";
            Guard.Cancel.cancel tok;
            Guard.checkpoint "test.cancel"))
  with
  | Some { Guard.reason = Guard.Cancelled { label = "driver" }; _ } ->
    check Alcotest.bool "token reads cancelled" true
      (Guard.Cancel.cancelled tok)
  | _ -> Alcotest.fail "cancelled token must trip the next checkpoint"

let test_create_validation () =
  let rejects what f =
    check Alcotest.bool what true
      (match f () with exception Invalid_argument _ -> true | _ -> false)
  in
  rejects "negative deadline" (fun () -> Guard.create ~deadline_ms:(-1) ());
  rejects "negative fuel" (fun () -> Guard.create ~fuel:(-2) ());
  rejects "negative depth" (fun () -> Guard.create ~max_depth:(-3) ())

let test_ambient_nesting () =
  let is g = match Guard.active () with Some x -> x == g | None -> false in
  let g1 = Guard.unlimited () and g2 = Guard.unlimited () in
  Guard.with_guard g1 (fun () ->
      check Alcotest.bool "outer installed" true (is g1);
      Guard.with_guard g2 (fun () ->
          check Alcotest.bool "inner shadows" true (is g2));
      check Alcotest.bool "outer restored" true (is g1);
      (* restoration also survives an exception *)
      (try
         Guard.with_guard g2 (fun () -> failwith "boom")
       with Failure _ -> ());
      check Alcotest.bool "restored after raise" true (is g1));
  check Alcotest.bool "cleared at the end" true (Guard.active () = None)

(* ------------------------------------------------------------------ *)
(* Boundaries: run and supervise                                       *)
(* ------------------------------------------------------------------ *)

let test_run () =
  (match Guard.run (fun () -> 42) with
  | Ok v -> check Alcotest.int "plain value" 42 v
  | Error t -> Alcotest.failf "unexpected trip: %s" (Guard.trip_to_string t));
  (match
     Guard.run
       ~guard:(Guard.create ~fuel:0 ())
       (fun () ->
         Guard.checkpoint "test.run";
         1)
   with
  | Error { Guard.site = "test.run"; reason = Guard.Fuel_exhausted _ } -> ()
  | _ -> Alcotest.fail "run must surface the trip as Error");
  (* stack exhaustion is caught at the boundary *)
  match Guard.run (fun () -> raise Stack_overflow) with
  | Error { Guard.reason = Guard.Stack_exhausted; _ } -> ()
  | _ -> Alcotest.fail "run must catch Stack_overflow"

let test_run_no_retry () =
  (* run is the observable boundary: injected faults surface *)
  match
    Guard.run (fun () ->
        Guard.checkpoint "test.norerun";
        0)
  with
  | Error { Guard.reason = Guard.Fault_injected { visit = 1 }; _ } -> ()
  | _ -> Alcotest.fail "run must not retry an injected fault"

let test_supervise_retry () =
  (* supervise absorbs the injected trip and re-runs to completion *)
  let attempts = ref 0 in
  (match
     Guard.supervise (fun () ->
         incr attempts;
         Guard.checkpoint "test.sup";
         Guard.checkpoint "test.sup";
         7)
   with
  | Ok v -> check Alcotest.int "recovered value" 7 v
  | Error t -> Alcotest.failf "unrecovered: %s" (Guard.trip_to_string t));
  check Alcotest.int "retried once" 2 !attempts;
  check
    Alcotest.(list (pair string int))
    "trip recorded"
    [ ("test.sup", 1) ]
    (Guard.Chaos.tripped ())

let test_supervise_real_trips () =
  (* real exhaustion is never retried *)
  let attempts = ref 0 in
  match
    Guard.supervise
      ~guard:(Guard.create ~fuel:0 ())
      (fun () ->
        incr attempts;
        Guard.checkpoint "test.supfuel")
  with
  | Error { Guard.reason = Guard.Fuel_exhausted _; _ } ->
    check Alcotest.int "single attempt" 1 !attempts
  | _ -> Alcotest.fail "fuel trip must surface from supervise"

(* ------------------------------------------------------------------ *)
(* Chaos: arming, matching, bookkeeping                                *)
(* ------------------------------------------------------------------ *)

let test_chaos_needs_guard () =
  (* without an ambient guard, armed chaos never fires (unguarded
     low-level calls in other tests stay deterministic) *)
  Guard.checkpoint "test.chaos.unguarded";
  check Alcotest.int "no visit counted" 0
    (Guard.Chaos.visits "test.chaos.unguarded")

let test_chaos_exact_and_visit () =
  let g = Guard.unlimited () in
  Guard.with_guard g (fun () ->
      Guard.checkpoint "test.chaos.other";
      Guard.checkpoint "test.chaos.hit";
      (* armed for visit 2 of this site *)
      match trip_reason (fun () -> Guard.checkpoint "test.chaos.hit") with
      | Some { Guard.reason = Guard.Fault_injected { visit = 2 }; site } ->
        check Alcotest.string "site" "test.chaos.hit" site
      | _ -> Alcotest.fail "rule must fire on the 2nd visit");
  check Alcotest.int "visits counted" 2 (Guard.Chaos.visits "test.chaos.hit");
  check Alcotest.int "other site untouched" 1
    (Guard.Chaos.visits "test.chaos.other")

let test_chaos_wildcards () =
  Guard.Chaos.arm [ ("alpha.*", 1) ];
  Fun.protect ~finally:Guard.Chaos.disarm (fun () ->
      let g = Guard.unlimited () in
      Guard.with_guard g (fun () ->
          Guard.checkpoint "beta.x";
          (match trip_reason (fun () -> Guard.checkpoint "alpha.x") with
          | Some { Guard.reason = Guard.Fault_injected _; _ } -> ()
          | _ -> Alcotest.fail "prefix wildcard must match alpha.x")));
  Guard.Chaos.arm [ ("*", 1) ];
  Fun.protect ~finally:Guard.Chaos.disarm (fun () ->
      let g = Guard.unlimited () in
      Guard.with_guard g (fun () ->
          match trip_reason (fun () -> Guard.checkpoint "anything.at.all") with
          | Some { Guard.reason = Guard.Fault_injected _; _ } -> ()
          | _ -> Alcotest.fail "star must match every site"))

let test_chaos_spec_parsing () =
  Fun.protect ~finally:Guard.Chaos.disarm (fun () ->
      (match Guard.Chaos.arm_spec "guard:foo.bar:2,guard:baz*:1" with
      | Ok () -> check Alcotest.bool "armed" true (Guard.Chaos.active ())
      | Error e -> Alcotest.failf "valid spec rejected: %s" e);
      List.iter
        (fun s ->
          check Alcotest.bool
            (Printf.sprintf "%S rejected" s)
            true
            (match Guard.Chaos.arm_spec s with
            | Error _ -> true
            | Ok () -> false))
        [ ""; "guard:foo"; "guard:foo:0"; "guard::1"; "chaos:foo:1"; "guard:foo:x" ])

(* ------------------------------------------------------------------ *)
(* Every guarded site: chaos-trip it, prove the path recovers          *)
(* ------------------------------------------------------------------ *)

let q = Crpq.parse

let nfa s = Nfa.of_regex (Regex.parse s)

let target_graph =
  Graph.make ~nnodes:4
    [ (0, "a", 1); (1, "b", 2); (2, "a", 3); (0, "a", 2); (1, "a", 3) ]

(* each workload reaches the named checkpoint (the entry's first word;
   the rest names the caller when one site has several); armed chaos
   trips it on the first visit and supervise (ours or the decider's own
   boundary) must recover and complete *)
let site_workloads =
  [
    ( "regex.enumerate",
      fun () -> ignore (Regex.enumerate ~max_len:4 (Regex.parse "(a|b)*")) );
    ("dfa.determinize", fun () -> ignore (Dfa.of_nfa (nfa "(a|b)*a(a|b)")));
    ( "dfa.product",
      fun () ->
        ignore (Dfa.intersect (Dfa.of_nfa (nfa "(ab)*")) (Dfa.of_nfa (nfa "(a|b)*"))) );
    ( "morphism.search",
      fun () ->
        ignore
          (Morphism.subgraph_iso
             ~pattern:(Graph.make ~nnodes:2 [ (0, "a", 1) ])
             ~target:target_graph) );
    ( "path_search.product",
      fun () -> ignore (Path_search.reachable target_graph (nfa "(a|b)*") 0) );
    ( "path_search.simple",
      fun () ->
        ignore (Path_search.all_simple target_graph (nfa "(a|b)*") ~src:0 ~dst:3)
    );
    ( "path_search.trail",
      fun () ->
        ignore (Path_search.find_trail target_graph (nfa "(a|b)*") ~src:0 ~dst:3)
    );
    ( "expansion.profiles",
      fun () ->
        ignore (Expansion.profiles ~max_len:2 (q "x -[a+]-> y, y -[b*]-> z")) );
    ( "expansion.partitions",
      fun () -> ignore (Expansion.ainj_expansions ~max_len:2 (q "x -[a+]-> y")) );
    ( "containment.decide",
      fun () ->
        ignore (Containment.decide Semantics.St (q "x -[a]-> y") (q "x -[a]-> y"))
    );
    ( "containment.search",
      fun () ->
        ignore
          (Containment.bounded Semantics.Q_inj ~max_len:2
             (q "x -[ab]-> y, y -[a+]-> z")
             (q "x -[(a|b)+]-> z")) );
    ( "ucrpq.contained",
      fun () ->
        ignore
          (Ucrpq.contained Semantics.St
             (Ucrpq.of_crpq (q "x -[ab]-> y"))
             (Ucrpq.of_crpq (q "x -[a]-> y"))) );
    ( "containment.search (Ucrpq.contained)",
      fun () ->
        ignore
          (Ucrpq.contained Semantics.St
             (Ucrpq.of_crpq (q "x -[ab]-> y"))
             (Ucrpq.of_crpq (q "x -[a]-> y"))) );
    ( "qinj.tracker",
      fun () ->
        ignore (Containment_qinj.decide (q "x -[(ab)+]-> y") (q "x -[(a|b)+]-> y"))
    );
    ( "qinj.types",
      fun () ->
        ignore (Containment_qinj.decide (q "x -[(ab)+]-> y") (q "x -[(a|b)+]-> y"))
    );
    ( "qinj.abstractions",
      fun () ->
        ignore (Containment_qinj.decide (q "x -[(ab)+]-> y") (q "x -[(a|b)+]-> y"))
    );
    ( "f7.window",
      fun () ->
        ignore (Containment_f7.decide_st (q "x -[a*ba*]-> y") (q "u -[b]-> v")) );
    ( "f7.middle",
      fun () ->
        ignore (Containment_f7.decide_st (q "x -[a*ba*]-> y") (q "u -[b]-> v")) );
    ( "f7.enumerate",
      fun () ->
        ignore (Containment_f7.decide_st (q "x -[a*ba*]-> y") (q "u -[b]-> v")) );
  ]

let exercise_site (entry, work) () =
  let site = List.hd (String.split_on_char ' ' entry) in
  Guard.Chaos.arm [ (site, 1) ];
  Fun.protect ~finally:Guard.Chaos.disarm (fun () ->
      (match Guard.supervise work with
      | Ok _ -> ()
      | Error t ->
        Alcotest.failf "site %s: unrecovered trip: %s" site
          (Guard.trip_to_string t));
      check Alcotest.bool (site ^ " reached") true (Guard.Chaos.visits site > 0);
      check Alcotest.bool (site ^ " tripped") true
        (List.mem_assoc site (Guard.Chaos.tripped ())))

(* ------------------------------------------------------------------ *)
(* Deciders under exhausted budgets: always a structured Unknown       *)
(* ------------------------------------------------------------------ *)

let gen_pair =
  QCheck2.Gen.pair (Testutil.gen_crpq ()) (Testutil.gen_crpq ())

let is_resource_exhausted = function
  | Containment.Unknown (Containment.Resource_exhausted _) -> true
  | _ -> false

let prop_fuel0_unknown =
  Testutil.qtest ~count:60 "decide under 1-step fuel is always Unknown"
    QCheck2.(Gen.pair gen_pair (Gen.oneofl Semantics.node_semantics))
    (fun ((q1, q2), sem) ->
      Guard.Chaos.disarm ();
      let guard = Guard.create ~fuel:0 () in
      is_resource_exhausted (Containment.decide ~guard sem q1 q2))

let prop_fuel1_no_raise =
  Testutil.qtest ~count:60 "decide under tiny fuel never raises"
    QCheck2.(Gen.pair gen_pair (Gen.oneofl Semantics.node_semantics))
    (fun ((q1, q2), sem) ->
      Guard.Chaos.disarm ();
      let guard = Guard.create ~fuel:1 () in
      match Containment.decide ~guard sem q1 q2 with
      | Containment.Contained | Containment.Not_contained _
      | Containment.Unknown _ ->
        true)

let test_deadline0_unknown () =
  Guard.Chaos.disarm ();
  let guard = Guard.create ~deadline_ms:0 () in
  let v =
    Containment.decide ~guard Semantics.A_inj
      (q "x -[a+]-> y, y -[b]-> z")
      (q "x -[(a|b)+]-> z")
  in
  (match v with
  | Containment.Unknown (Containment.Resource_exhausted trip) ->
    check Alcotest.string "deadline reason" "deadline"
      (Guard.reason_kind trip.Guard.reason)
  | _ -> Alcotest.fail "0ms deadline must yield Resource_exhausted");
  (* the union layer degrades the same way *)
  let guard = Guard.create ~fuel:0 () in
  check Alcotest.bool "ucrpq degrades" true
    (is_resource_exhausted
       (Ucrpq.contained ~guard Semantics.St
          (Ucrpq.of_crpq (q "x -[a+]-> y"))
          (Ucrpq.of_crpq (q "x -[a*]-> y"))))

(* ------------------------------------------------------------------ *)
(* Retry: jittered exponential backoff                                  *)
(* ------------------------------------------------------------------ *)

let fault_trip site = { Guard.site; reason = Guard.Fault_injected { visit = 1 } }

let fuel_trip site = { Guard.site; reason = Guard.Fuel_exhausted { budget = 0 } }

let test_retry_delay_deterministic () =
  let p = Guard.Retry.policy ~base_delay_ms:100 ~multiplier:2.0 ~jitter:0.5 () in
  (* same (policy, seed, attempt) always yields the same delay *)
  for attempt = 1 to 5 do
    check Alcotest.int
      (Printf.sprintf "attempt %d reproducible" attempt)
      (Guard.Retry.delay_ms p ~seed:42 ~attempt)
      (Guard.Retry.delay_ms p ~seed:42 ~attempt)
  done;
  (* jitter only shrinks the exponential base, and never below half *)
  for attempt = 1 to 5 do
    let full = 100. *. (2. ** float_of_int (attempt - 1)) in
    let full = int_of_float (Float.min full 1000.) in
    let d = Guard.Retry.delay_ms p ~seed:7 ~attempt in
    if d > full || d < full / 2 then
      Alcotest.failf "attempt %d: delay %d outside [%d, %d]" attempt d
        (full / 2) full
  done;
  (* different seeds give a different schedule somewhere *)
  let schedule seed =
    List.init 6 (fun i -> Guard.Retry.delay_ms p ~seed ~attempt:(i + 1))
  in
  check Alcotest.bool "seeds decorrelate" true (schedule 1 <> schedule 2);
  (* the cap holds for late attempts *)
  check Alcotest.bool "cap holds" true
    (Guard.Retry.delay_ms p ~seed:3 ~attempt:30 <= 1000)

let test_retry_transient () =
  check Alcotest.bool "fault-injected is transient" true
    (Guard.Retry.transient (fault_trip "test.retry"));
  check Alcotest.bool "fuel is not transient" false
    (Guard.Retry.transient (fuel_trip "test.retry"));
  check Alcotest.bool "cancelled is not transient" false
    (Guard.Retry.transient
       { Guard.site = "s"; reason = Guard.Cancelled { label = "l" } })

let test_retry_recovers () =
  let p = Guard.Retry.policy ~max_attempts:3 ~base_delay_ms:10 () in
  let sleeps = ref [] in
  let sleep ms = sleeps := ms :: !sleeps in
  let calls = ref 0 in
  let f () =
    incr calls;
    if !calls < 3 then Error (fault_trip "test.retry") else Ok "done"
  in
  let result, attempts = Guard.Retry.run ~policy:p ~seed:5 ~sleep f in
  check Alcotest.(result string reject) "recovered" (Ok "done") result;
  check Alcotest.int "three attempts" 3 attempts;
  (* the recorded sleeps are exactly the deterministic schedule *)
  check
    Alcotest.(list int)
    "sleep schedule"
    [
      Guard.Retry.delay_ms p ~seed:5 ~attempt:1;
      Guard.Retry.delay_ms p ~seed:5 ~attempt:2;
    ]
    (List.rev !sleeps)

let test_retry_gives_up () =
  let p = Guard.Retry.policy ~max_attempts:3 ~base_delay_ms:1 () in
  let calls = ref 0 in
  let f () =
    incr calls;
    Error (fault_trip "test.retry")
  in
  let result, attempts =
    Guard.Retry.run ~policy:p ~seed:1 ~sleep:(fun _ -> ()) f
  in
  (match result with
  | Error { Guard.reason = Guard.Fault_injected _; _ } -> ()
  | _ -> Alcotest.fail "must surface the last trip");
  check Alcotest.int "attempt budget spent" 3 attempts;
  check Alcotest.int "function called thrice" 3 !calls

let test_retry_permanent_trips_do_not_retry () =
  let calls = ref 0 in
  let f () =
    incr calls;
    Error (fuel_trip "test.retry")
  in
  let result, attempts = Guard.Retry.run ~sleep:(fun _ -> ()) f in
  (match result with
  | Error { Guard.reason = Guard.Fuel_exhausted _; _ } -> ()
  | _ -> Alcotest.fail "fuel trip must pass through");
  check Alcotest.int "single attempt" 1 attempts;
  check Alcotest.int "called once" 1 !calls

let test_retry_custom_retryable () =
  (* a custom predicate can widen the policy to real trips *)
  let calls = ref 0 in
  let f () =
    incr calls;
    if !calls = 1 then Error (fuel_trip "test.retry") else Ok ()
  in
  let retryable = function
    | { Guard.reason = Guard.Fuel_exhausted _; _ } -> true
    | _ -> false
  in
  let result, attempts = Guard.Retry.run ~retryable ~sleep:(fun _ -> ()) f in
  check Alcotest.bool "recovered" true (result = Ok ());
  check Alcotest.int "two attempts" 2 attempts

let test_retry_validation () =
  (match Guard.Retry.policy ~max_attempts:0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "max_attempts 0 must be rejected");
  match Guard.Retry.delay_ms Guard.Retry.default ~seed:0 ~attempt:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "attempt 0 must be rejected"

let () =
  Alcotest.run "guard"
    [
      ( "trips",
        [
          Alcotest.test_case "unguarded no-op" `Quick (no_chaos test_unguarded_noop);
          Alcotest.test_case "fuel" `Quick (no_chaos test_fuel);
          Alcotest.test_case "fuel zero" `Quick (no_chaos test_fuel_zero);
          Alcotest.test_case "deadline (fake clock)" `Quick
            (no_chaos test_deadline_fake_clock);
          Alcotest.test_case "deadline zero" `Quick (no_chaos test_deadline_zero);
          Alcotest.test_case "depth" `Quick (no_chaos test_depth);
          Alcotest.test_case "cancellation" `Quick (no_chaos test_cancel);
          Alcotest.test_case "create validation" `Quick
            (no_chaos test_create_validation);
          Alcotest.test_case "ambient nesting" `Quick
            (no_chaos test_ambient_nesting);
        ] );
      ( "boundaries",
        [
          Alcotest.test_case "run" `Quick (no_chaos test_run);
          Alcotest.test_case "run does not retry chaos" `Quick
            (with_chaos [ ("test.norerun", 1) ] test_run_no_retry);
          Alcotest.test_case "supervise retries chaos" `Quick
            (with_chaos [ ("test.sup", 1) ] test_supervise_retry);
          Alcotest.test_case "supervise keeps real trips" `Quick
            (no_chaos test_supervise_real_trips);
        ] );
      ( "chaos",
        [
          Alcotest.test_case "inert without a guard" `Quick
            (with_chaos [ ("test.chaos.unguarded", 1) ] test_chaos_needs_guard);
          Alcotest.test_case "exact site and visit" `Quick
            (with_chaos [ ("test.chaos.hit", 2) ] test_chaos_exact_and_visit);
          Alcotest.test_case "wildcards" `Quick (no_chaos test_chaos_wildcards);
          Alcotest.test_case "spec parsing" `Quick
            (no_chaos test_chaos_spec_parsing);
        ] );
      ( "sites",
        List.map
          (fun (site, work) ->
            Alcotest.test_case site `Quick (exercise_site (site, work)))
          site_workloads );
      ( "retry",
        [
          Alcotest.test_case "deterministic jittered delays" `Quick
            (no_chaos test_retry_delay_deterministic);
          Alcotest.test_case "transient classification" `Quick
            (no_chaos test_retry_transient);
          Alcotest.test_case "recovers within budget" `Quick
            (no_chaos test_retry_recovers);
          Alcotest.test_case "gives up after max attempts" `Quick
            (no_chaos test_retry_gives_up);
          Alcotest.test_case "permanent trips pass through" `Quick
            (no_chaos test_retry_permanent_trips_do_not_retry);
          Alcotest.test_case "custom retryable predicate" `Quick
            (no_chaos test_retry_custom_retryable);
          Alcotest.test_case "validation" `Quick (no_chaos test_retry_validation);
        ] );
      ( "degradation",
        [
          prop_fuel0_unknown;
          prop_fuel1_no_raise;
          Alcotest.test_case "deadline 0 end to end" `Quick
            test_deadline0_unknown;
        ] );
    ]
