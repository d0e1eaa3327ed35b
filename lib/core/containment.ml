type witness = {
  expansion : Expansion.expanded;
  tuple : Graph.node list;
}

type exhaustion = {
  bound_reached : int;
  expansions_enumerated : int;
  notes : string list;
}

type reason =
  | Budget_exhausted of exhaustion
  | Undecided of string
  | Resource_exhausted of Guard.trip

type verdict =
  | Contained
  | Not_contained of witness
  | Unknown of reason

(* Search telemetry (no-ops unless [Obs.Metrics] is enabled). *)
let m_decisions = Obs.Metrics.counter "containment.decisions"

let m_expansions = Obs.Metrics.counter "containment.expansions_enumerated"

let m_counterexamples = Obs.Metrics.counter "containment.counterexamples"

let h_expansions = Obs.Metrics.histogram "containment.expansions_per_search"

let budget_exhausted ~bound ~expansions =
  if Obs.Events.enabled () then
    Obs.Events.emit Obs.Events.Warn "containment.budget_exhausted"
      [
        ("bound_reached", Obs.Json.Int bound);
        ("expansions_enumerated", Obs.Json.Int expansions);
      ];
  Unknown
    (Budget_exhausted
       { bound_reached = bound; expansions_enumerated = expansions; notes = [] })

let resource_exhausted trip = Unknown (Resource_exhausted trip)

let with_note note = function
  | Unknown (Budget_exhausted e) ->
    Unknown (Budget_exhausted { e with notes = e.notes @ [ note ] })
  | Unknown (Undecided msg) -> Unknown (Undecided (msg ^ "; " ^ note))
  | v -> v

let reason_to_string = function
  | Budget_exhausted e ->
    let base =
      Printf.sprintf
        "search budget exhausted: no counterexample among %d expansions with \
         atom words of length <= %d"
        e.expansions_enumerated e.bound_reached
    in
    String.concat "; " (base :: e.notes)
  | Undecided msg -> msg
  | Resource_exhausted trip ->
    "resource exhausted: " ^ Guard.trip_to_string trip

let verdict_name = function
  | Contained -> "contained"
  | Not_contained _ -> "not-contained"
  | Unknown _ -> "unknown"

let reason_to_json r =
  let kind =
    match r with
    | Resource_exhausted trip -> Guard.reason_kind trip.Guard.reason
    | Budget_exhausted _ -> "search-budget"
    | Undecided _ -> "undecided"
  in
  Obs.Json.Obj
    [ ("kind", Obs.Json.String kind); ("detail", Obs.Json.String (reason_to_string r)) ]

let verdict_bool = function
  | Contained -> Some true
  | Not_contained _ -> Some false
  | Unknown _ -> None

let pp_verdict ppf = function
  | Contained -> Format.pp_print_string ppf "contained"
  | Not_contained w ->
    Format.fprintf ppf "not contained (counterexample: %a)" Cq.pp
      w.expansion.Expansion.cq
  | Unknown r -> Format.fprintf ppf "unknown (%s)" (reason_to_string r)

let node_semantics_only sem =
  match sem with
  | Semantics.St | Semantics.A_inj | Semantics.Q_inj -> ()
  | Semantics.A_edge_inj | Semantics.Q_edge_inj ->
    invalid_arg "Containment: edge semantics not supported (Section 7)"

let check_arity lhs rhs =
  match lhs @ rhs with
  | [] -> ()
  | (q : Crpq.t) :: qs ->
    let arity (p : Crpq.t) = List.length p.Crpq.free in
    if List.exists (fun p -> arity p <> arity q) qs then
      invalid_arg "Containment: queries of different arities"

(* Expansion-side rhs checks are the deciders' evaluation workload; the
   caller attribution makes their bulk-engine consumption visible as
   [bulk.dispatch.containment.*] (standard-semantics checks only ever
   reach the engine through [Eval] — references never switch). *)
let defeats_all rhs (g, tuple) =
  Bulk_rpq.with_caller "containment" (fun () ->
      List.for_all (fun q2 -> not (Eval.check_prepared q2 g tuple)) rhs)

let is_counterexample sem q2 e =
  defeats_all [ Eval.prepare sem q2 ] (Expansion.to_graph e)

(* ------------------------------------------------------------------ *)
(* CQ/CQ: homomorphism tests                                            *)
(* ------------------------------------------------------------------ *)

let cq_cq sem q1 q2 =
  node_semantics_only sem;
  if List.length q1.Cq.free <> List.length q2.Cq.free then
    invalid_arg "Containment.cq_cq: queries of different arities";
  match sem with
  | Semantics.St -> Cq.hom_exists q2 q1
  | Semantics.Q_inj -> Cq.inj_hom_exists q2 q1
  | Semantics.A_inj -> Cq.non_contracting_hom_exists q2 q1
  | Semantics.A_edge_inj | Semantics.Q_edge_inj -> assert false

(* ------------------------------------------------------------------ *)
(* Expansion-space search                                               *)
(* ------------------------------------------------------------------ *)

(* Returns the first candidate defeating every right query (if any), as
   a witness, together with the number of candidates checked before
   stopping — the count feeds the budget-exhaustion verdict and the
   search histograms.  A candidate is checked on its graph; [named]
   builds its expansion for a witness or an event only.  The right
   queries are prepared once, before the first check.  Candidates are
   independent, so the scan fans out across domains when [--jobs] is
   set; [Parmap.find_mapi] returns the lowest-index match, so the chosen
   witness — and hence the verdict — is the one the sequential scan
   finds. *)
let search_expansions ~graph_of ~named rhs candidates =
  let rhs = match candidates with [] -> [] | _ :: _ -> Lazy.force rhs in
  let pp_named c = Obs.Json.String (Format.asprintf "%a" Cq.pp (named c).Expansion.cq) in
  let check _ c =
    Guard.checkpoint "containment.search";
    Obs.Metrics.incr m_expansions;
    let ((_, tuple) as graph) = graph_of c in
    if defeats_all rhs graph then begin
      Obs.Metrics.incr m_counterexamples;
      if Obs.Events.enabled () then
        Obs.Events.emit Obs.Events.Info "containment.counterexample"
          [ ("expansion", pp_named c) ];
      Some { expansion = named c; tuple }
    end
    else begin
      if Obs.Events.enabled () then
        Obs.Events.emit Obs.Events.Debug "containment.expansion_refuted"
          [ ("expansion", pp_named c) ];
      None
    end
  in
  match Parmap.find_mapi check candidates with
  | Some (i, w) ->
    Obs.Metrics.observe h_expansions (i + 1);
    (Some w, i + 1)
  | None ->
    let tried = List.length candidates in
    Obs.Metrics.observe h_expansions tried;
    (None, tried)

(* The ★-expansions of one ε-free disjunct, searched; a-inj ones as
   graphs (see {!Expansion.ainj_candidates}). *)
let search_disjunct sem max_len rhs d =
  let expanded = search_expansions ~graph_of:Expansion.to_graph ~named:Fun.id rhs in
  match sem, max_len with
  | Semantics.A_inj, _ ->
    search_expansions ~graph_of:Expansion.candidate_graph
      ~named:Expansion.candidate_expansion rhs
      (Expansion.ainj_candidates ?max_len d)
  | (Semantics.St | Semantics.Q_inj), None -> expanded (Expansion.finite_expansions d)
  | (Semantics.St | Semantics.Q_inj), Some max_len ->
    expanded (Expansion.expansions ~max_len d)
  | (Semantics.A_edge_inj | Semantics.Q_edge_inj), _ -> assert false

(* Expansions are computed per ε-free disjunct (lazily, so a witness in
   an early disjunct spares the later ones) to keep the space small and
   because ε-atoms are already folded into disjuncts. *)
let search sem ~max_len lhs rhs =
  node_semantics_only sem;
  let rhs = lazy (List.map (Eval.prepare sem) rhs) in
  let total = ref 0 in
  let disjuncts =
    Seq.concat_map
      (fun q -> List.to_seq (Crpq.epsilon_free_disjuncts q))
      (List.to_seq lhs)
  in
  let witness =
    Seq.find_map
      (fun d ->
        let w, tried = search_disjunct sem max_len rhs d in
        total := !total + tried;
        w)
      disjuncts
  in
  match witness, max_len with
  | Some w, _ -> Not_contained w
  | None, None -> Contained
  | None, Some bound -> budget_exhausted ~bound ~expansions:!total

let supervised ?guard f =
  match Guard.supervise ?guard f with
  | Ok v -> v
  | Error trip -> resource_exhausted trip

let finite_lhs ?guard sem q1 q2 =
  check_arity [ q1 ] [ q2 ];
  supervised ?guard (fun () -> search sem ~max_len:None [ q1 ] [ q2 ])

let bounded ?guard sem ~max_len q1 q2 =
  check_arity [ q1 ] [ q2 ];
  supervised ?guard (fun () -> search sem ~max_len:(Some max_len) [ q1 ] [ q2 ])

(* Both injective containments imply the standard one (§4.1), and the
   Theorem 5.1 algorithm decides the query-injective one exactly, so its
   certificate settles a standard-semantics pair before any expansion is
   enumerated.  It can never certify a pair that is not St-contained:
   where it declines, the bounded search runs as before and returns the
   same witness or budget exhaustion. *)
let certified_bounded sem ~bound lhs rhs =
  let certified () =
    try Containment_qinj.certify_union lhs rhs
    with Containment_qinj.Unsupported _ -> false
  in
  supervised (fun () ->
      if sem = Semantics.St && certified () then Contained
      else search sem ~max_len:(Some bound) lhs rhs)

(* ------------------------------------------------------------------ *)
(* Dispatcher                                                           *)
(* ------------------------------------------------------------------ *)

(* The procedures of Figure 1, over a union of left queries and a union
   of right ones.  CQ/CQ, RPQ inclusion and Prop F.7 are single-query
   procedures and carry the pair they apply to; the others take both
   unions whole. *)
type strategy =
  | S_trivial
  | S_cq_cq of Crpq.t * Crpq.t
  | S_rpq of Crpq.t * Crpq.t
  | S_finite_lhs
  | S_qinj_abstraction
  | S_f7 of Crpq.t * Crpq.t
  | S_bounded

(* Binary RPQ shape Q(x, y) = x -[L]-> y: containment coincides with
   language inclusion under all three semantics (the observation opening
   Prop F.8: the free tuple pins the expansion endpoints, and a line
   graph admits no folding, so the right word must equal the left one). *)
let rpq_shape (q : Crpq.t) =
  match q.Crpq.atoms, q.Crpq.free with
  | [ a ], [ x; y ]
    when x = a.Crpq.src && y = a.Crpq.dst && a.Crpq.src <> a.Crpq.dst ->
    Some a.Crpq.lang
  | _ -> None

let pick_strategy sem lhs rhs =
  (* [has_empty_language] is the cheap syntactic check (one regex walk
     per atom, what the lint pass reports as E001); it short-circuits
     the exponential disjunct computation for the common degenerate
     case of an unsatisfiable left query *)
  let unsatisfiable q =
    Crpq.has_empty_language q || Crpq.epsilon_free_disjuncts q = []
  in
  match lhs, rhs with
  | _ when List.for_all unsatisfiable lhs -> S_trivial
  | [ q1 ], [ q2 ] when Crpq.is_cq q1 && Crpq.is_cq q2 -> S_cq_cq (q1, q2)
  | [ q1 ], [ q2 ] when rpq_shape q1 <> None && rpq_shape q2 <> None -> S_rpq (q1, q2)
  | _ when List.for_all Crpq.is_finite lhs -> S_finite_lhs
  | _ when sem = Semantics.Q_inj -> S_qinj_abstraction
  | [ q1 ], [ q2 ] when sem = Semantics.St && Crpq.is_cq q2 -> S_f7 (q1, q2)
  | _ -> S_bounded

let strategy_name sem q1 q2 =
  match pick_strategy sem [ q1 ] [ q2 ] with
  | S_trivial -> "trivial (unsatisfiable left query)"
  | S_cq_cq _ -> "cq-homomorphism"
  | S_rpq _ -> "regular-language inclusion (RPQ/RPQ)"
  | S_finite_lhs -> "finite-expansion enumeration"
  | S_qinj_abstraction -> "abstraction algorithm (Thm 5.1)"
  | S_f7 _ -> "window algorithm (Prop F.7)"
  | S_bounded when sem = Semantics.St ->
    "Thm 5.1 certificate, then bounded counterexample search"
  | S_bounded -> "bounded counterexample search"

let cq_fallback_witness sem q1 q2 =
  (* produce a concrete counterexample for a CQ/CQ non-containment *)
  match finite_lhs sem q1 q2 with
  | Not_contained w -> Not_contained w
  | Unknown _ as u ->
    (* the witness search itself ran out of budget *)
    u
  | Contained ->
    (* should not happen: cq_cq said not contained *)
    assert false

let witness_of e = Not_contained { expansion = e; tuple = snd (Expansion.to_graph e) }

let decide_impl ~bound sem lhs rhs =
  node_semantics_only sem;
  check_arity lhs rhs;
  match pick_strategy sem lhs rhs with
  | S_trivial -> Contained
  | S_cq_cq (q1, q2) ->
    let c1 = Option.get (Crpq.to_cq q1) and c2 = Option.get (Crpq.to_cq q2) in
    if cq_cq sem c1 c2 then Contained else cq_fallback_witness sem q1 q2
  | S_rpq (q1, q2) -> begin
    let l1 = Option.get (rpq_shape q1) and l2 = Option.get (rpq_shape q2) in
    if Dfa.included (Crpq.nfa l1) (Crpq.nfa l2) then Contained
    else begin
      (* a shortest word of L1 \ L2 gives the counterexample expansion *)
      let alphabet =
        List.sort_uniq String.compare (Regex.alphabet l1 @ Regex.alphabet l2)
      in
      let d1 = Dfa.of_nfa ~alphabet (Crpq.nfa l1) in
      let d2 = Dfa.of_nfa ~alphabet (Crpq.nfa l2) in
      match Dfa.shortest_word (Dfa.intersect d1 (Dfa.complement d2)) with
      | None -> assert false
      | Some w -> witness_of (Expansion.expand q1 [| w |])
    end
  end
  | S_finite_lhs -> supervised (fun () -> search sem ~max_len:None lhs rhs)
  | S_qinj_abstraction -> begin
    match Containment_qinj.decide_union lhs rhs with
    | Containment_qinj.Qinj_contained -> Contained
    | Containment_qinj.Qinj_not_contained e -> witness_of e
    | exception Containment_qinj.Unsupported msg ->
      with_note
        ("abstraction algorithm unsupported: " ^ msg)
        (supervised (fun () -> search sem ~max_len:(Some bound) lhs rhs))
  end
  | S_f7 (q1, q2) -> begin
    match Containment_f7.decide_st q1 q2 with
    | Containment_f7.F7_contained -> Contained
    | Containment_f7.F7_not_contained e -> witness_of e
    | exception Containment_f7.Unsupported msg ->
      with_note
        ("window algorithm unsupported: " ^ msg)
        (certified_bounded sem ~bound lhs rhs)
  end
  | S_bounded -> certified_bounded sem ~bound lhs rhs

let decide_union ?(bound = 4) ?guard sem lhs rhs =
  Obs.Metrics.incr m_decisions;
  let lhs = List.map (Eval.preprocess sem) lhs
  and rhs = List.map (Eval.preprocess sem) rhs in
  let go () =
    Guard.checkpoint "containment.decide";
    if Obs.Trace.enabled () then
      Obs.Trace.span "containment.decide" (fun () ->
          decide_impl ~bound sem lhs rhs)
    else decide_impl ~bound sem lhs rhs
  in
  supervised ?guard go

let decide ?bound ?guard sem q1 q2 = decide_union ?bound ?guard sem [ q1 ] [ q2 ]
