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

let check_arity q1 q2 =
  if List.length q1.Crpq.free <> List.length q2.Crpq.free then
    invalid_arg "Containment: queries of different arities"

(* Expansion-side rhs checks are the deciders' evaluation workload; the
   caller attribution makes their bulk-engine consumption visible as
   [bulk.dispatch.containment.*] (standard-semantics checks only ever
   reach the engine through [Eval] — references never switch). *)
let defeats_all sem rhs (e : Expansion.expanded) =
  let g, tuple = Expansion.to_graph e in
  Bulk_rpq.with_caller "containment" (fun () ->
      List.for_all (fun q2 -> not (Eval.check sem q2 g tuple)) rhs)

let is_counterexample sem q2 e = defeats_all sem [ q2 ] e

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

(* Returns the first expansion defeating every right query (if any)
   together with the number of expansions enumerated before stopping —
   the count feeds the budget-exhaustion verdict and the search
   histograms.  Expansions are independent, so the scan fans out across
   domains when [--jobs] is set; [Parmap.find_mapi] returns the
   lowest-index match, so the chosen witness — and hence the verdict —
   is the one the sequential scan finds. *)
let search_expansions sem rhs expansions =
  let check _ e =
    Guard.checkpoint "containment.search";
    Obs.Metrics.incr m_expansions;
    if defeats_all sem rhs e then begin
      Obs.Metrics.incr m_counterexamples;
      if Obs.Events.enabled () then
        Obs.Events.emit Obs.Events.Info "containment.counterexample"
          [ ("expansion", Obs.Json.String (Format.asprintf "%a" Cq.pp e.Expansion.cq)) ];
      Some { expansion = e; tuple = snd (Expansion.to_graph e) }
    end
    else begin
      if Obs.Events.enabled () then
        Obs.Events.emit Obs.Events.Debug "containment.expansion_refuted"
          [ ("expansion", Obs.Json.String (Format.asprintf "%a" Cq.pp e.Expansion.cq)) ];
      None
    end
  in
  match Parmap.find_mapi check expansions with
  | Some (i, w) ->
    Obs.Metrics.observe h_expansions (i + 1);
    (Some w, i + 1)
  | None ->
    let tried = List.length expansions in
    Obs.Metrics.observe h_expansions tried;
    (None, tried)

let star_expansions sem max_len q =
  match sem, max_len with
  | (Semantics.St | Semantics.Q_inj), None -> Expansion.finite_expansions q
  | Semantics.A_inj, None -> Expansion.finite_ainj_expansions q
  | (Semantics.St | Semantics.Q_inj), Some max_len -> Expansion.expansions ~max_len q
  | Semantics.A_inj, Some max_len -> Expansion.ainj_expansions ~max_len q
  | (Semantics.A_edge_inj | Semantics.Q_edge_inj), _ -> assert false

(* Expansions are computed per ε-free disjunct (lazily, so a witness in
   an early disjunct spares the later ones) to keep the space small and
   because ε-atoms are already folded into disjuncts. *)
let search sem ~max_len lhs rhs =
  node_semantics_only sem;
  let total = ref 0 in
  let disjuncts =
    Seq.concat_map
      (fun q -> List.to_seq (Crpq.epsilon_free_disjuncts q))
      (List.to_seq lhs)
  in
  let witness =
    Seq.find_map
      (fun d ->
        let w, tried = search_expansions sem rhs (star_expansions sem max_len d) in
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
  check_arity q1 q2;
  supervised ?guard (fun () -> search sem ~max_len:None [ q1 ] [ q2 ])

let bounded ?guard sem ~max_len q1 q2 =
  check_arity q1 q2;
  supervised ?guard (fun () -> search sem ~max_len:(Some max_len) [ q1 ] [ q2 ])

(* ------------------------------------------------------------------ *)
(* Dispatcher                                                           *)
(* ------------------------------------------------------------------ *)

type strategy =
  | S_trivial
  | S_cq_cq
  | S_rpq
  | S_finite_lhs
  | S_qinj_abstraction
  | S_f7
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

let pick_strategy sem q1 q2 =
  (* [has_empty_language] is the cheap syntactic check (one regex walk
     per atom, what the lint pass reports as E001); it short-circuits
     the exponential disjunct computation for the common degenerate
     case of an unsatisfiable left query *)
  if Crpq.has_empty_language q1 || Crpq.epsilon_free_disjuncts q1 = [] then S_trivial
  else if Crpq.is_cq q1 && Crpq.is_cq q2 then S_cq_cq
  else if rpq_shape q1 <> None && rpq_shape q2 <> None then S_rpq
  else if Crpq.is_finite q1 then S_finite_lhs
  else if sem = Semantics.Q_inj then S_qinj_abstraction
  else if sem = Semantics.St && Crpq.is_cq q2 then S_f7
  else S_bounded

let strategy_name sem q1 q2 =
  match pick_strategy sem q1 q2 with
  | S_trivial -> "trivial (unsatisfiable left query)"
  | S_cq_cq -> "cq-homomorphism"
  | S_rpq -> "regular-language inclusion (RPQ/RPQ)"
  | S_finite_lhs -> "finite-expansion enumeration"
  | S_qinj_abstraction -> "abstraction algorithm (Thm 5.1)"
  | S_f7 -> "window algorithm (Prop F.7)"
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

let decide_impl ~bound sem q1 q2 =
  node_semantics_only sem;
  check_arity q1 q2;
  match pick_strategy sem q1 q2 with
  | S_trivial -> Contained
  | S_cq_cq ->
    let c1 = Option.get (Crpq.to_cq q1) and c2 = Option.get (Crpq.to_cq q2) in
    if cq_cq sem c1 c2 then Contained else cq_fallback_witness sem q1 q2
  | S_rpq -> begin
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
      | Some w ->
        let e = Expansion.expand q1 [| w |] in
        Not_contained { expansion = e; tuple = snd (Expansion.to_graph e) }
    end
  end
  | S_finite_lhs -> finite_lhs sem q1 q2
  | S_qinj_abstraction -> begin
    match Containment_qinj.decide q1 q2 with
    | Containment_qinj.Qinj_contained -> Contained
    | Containment_qinj.Qinj_not_contained e ->
      Not_contained { expansion = e; tuple = snd (Expansion.to_graph e) }
    | exception Containment_qinj.Unsupported msg ->
      with_note
        ("abstraction algorithm unsupported: " ^ msg)
        (bounded sem ~max_len:bound q1 q2)
  end
  | S_f7 -> begin
    match Containment_f7.decide_st q1 q2 with
    | Containment_f7.F7_contained -> Contained
    | Containment_f7.F7_not_contained e ->
      Not_contained { expansion = e; tuple = snd (Expansion.to_graph e) }
    | exception Containment_f7.Unsupported msg ->
      with_note
        ("window algorithm unsupported: " ^ msg)
        (bounded sem ~max_len:bound q1 q2)
  end
  | S_bounded -> begin
    (* For standard semantics, query-injective containment is a sound
       sufficient condition (Prop 4.3 homs are in particular homs), and
       the Theorem 5.1 algorithm decides it exactly: try it before the
       bounded search. *)
    let qinj_implies () =
      match sem with
      | Semantics.St -> begin
        match Containment_qinj.decide q1 q2 with
        | Containment_qinj.Qinj_contained -> true
        | Containment_qinj.Qinj_not_contained _ -> false
        | exception Containment_qinj.Unsupported _ -> false
      end
      | _ -> false
    in
    match bounded sem ~max_len:bound q1 q2 with
    | Unknown _ as u -> if qinj_implies () then Contained else u
    | v -> v
  end

let preprocessor : (Semantics.t -> Crpq.t -> Crpq.t) ref = ref (fun _ q -> q)

let set_preprocessor f = preprocessor := f

let decide ?(bound = 4) ?guard sem q1 q2 =
  Obs.Metrics.incr m_decisions;
  let q1 = !preprocessor sem q1 and q2 = !preprocessor sem q2 in
  let go () =
    Guard.checkpoint "containment.decide";
    if Obs.Trace.enabled () then
      Obs.Trace.span "containment.decide" (fun () ->
          decide_impl ~bound sem q1 q2)
    else decide_impl ~bound sem q1 q2
  in
  supervised ?guard go
