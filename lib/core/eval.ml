exception Found

(* Search telemetry (no-ops unless [Obs.Metrics] is enabled): candidate
   nodes examined by the join / witness searches, simple paths threaded
   by the query-injective engine, and evaluations performed. *)
let m_candidates = Obs.Metrics.counter "eval.candidates_tried"

let m_paths = Obs.Metrics.counter "eval.paths_threaded"

let m_evals = Obs.Metrics.counter "eval.evaluations"

(* ------------------------------------------------------------------ *)
(* Prepared queries                                                     *)
(* ------------------------------------------------------------------ *)

(* What evaluation needs of one ε-free disjunct, independent of the
   graph: its variables by index, and per atom the indices of its
   endpoints and its automaton. *)
type atom = { si : int; ti : int; nfa : Nfa.t }

type disjunct = { nv : int; atoms : atom list; free : int list }

type prepared = { sem : Semantics.t; query : Crpq.t; disjuncts : disjunct list }

let prepare_disjunct (d : Crpq.t) =
  let index = Hashtbl.create 16 in
  List.iteri (fun i x -> Hashtbl.replace index x i) (Crpq.vars d);
  let var = Hashtbl.find index in
  {
    nv = Hashtbl.length index;
    atoms =
      List.map
        (fun (a : Crpq.atom) ->
          { si = var a.Crpq.src; ti = var a.Crpq.dst; nfa = Crpq.nfa a.Crpq.lang })
        d.Crpq.atoms;
    free = List.map var d.Crpq.free;
  }

(* ------------------------------------------------------------------ *)
(* Bound tuples                                                         *)
(* ------------------------------------------------------------------ *)

(* The assignment a bound tuple starts [d]'s search from (-1: open), or
   [None] when a bound node is outside [g] or one variable gets two
   nodes: a repeated free variable, or two merged by an ε-atom. *)
let fixed_assignment g d bound =
  let n = Graph.nnodes g in
  let mu = Array.make d.nv (-1) in
  let fix i = function
    | None -> true
    | Some u when u < 0 || u >= n || (mu.(i) >= 0 && mu.(i) <> u) -> false
    | Some u ->
      mu.(i) <- u;
      true
  in
  if List.for_all2 fix d.free bound then Some mu else None

(* ------------------------------------------------------------------ *)
(* Relational join for St / A_inj / A_edge_inj                         *)
(* ------------------------------------------------------------------ *)

(* A relation whose pairs are decided on first probe, by [f].  A row's
   n cells are allocated on the first probe of that row. *)
let on_demand g f =
  let n = Graph.nnodes g in
  let rows = Array.make n Bytes.empty in
  fun u v ->
    if Bytes.length rows.(u) = 0 then rows.(u) <- Bytes.make n '\000';
    let cells = rows.(u) in
    match Bytes.get cells v with
    | '\001' -> false
    | '\002' -> true
    | _ ->
      let b = f u v in
      Bytes.set cells v (if b then '\002' else '\001');
      b

(* Each atom contributes a binary relation over nodes; evaluation is a
   backtracking join over the query variables.  St relations are built
   whole, as bit rows, by [Bulk_rpq.st_relation]; the injective ones are
   probed pair by pair (each entry is a witness search), so they are
   filled on demand. *)
let relation_for sem g a =
  match sem with
  | Semantics.St ->
    let rel = Bulk_rpq.st_relation g a.nfa in
    Bitmatrix.get rel
  | Semantics.A_inj ->
    (* one searcher for all the atom's probes, built on the first *)
    let s = lazy (Path_search.simple_searcher g a.nfa) in
    let simple u v = Path_search.find_simple_with (Lazy.force s) ~src:u ~dst:v <> None in
    (* an atom x -[L]-> y with syntactically distinct variables must map
       to a simple path, whose endpoints are distinct: the diagonal (it
       holds simple-cycle reachability) is empty *)
    if a.si <> a.ti then on_demand g (fun u v -> u <> v && simple u v)
    else on_demand g simple
  | Semantics.A_edge_inj ->
    let s = lazy (Path_search.simple_searcher g a.nfa) in
    let trail u v = Path_search.find_trail_with (Lazy.force s) ~src:u ~dst:v <> None in
    on_demand g trail
  | Semantics.Q_inj | Semantics.Q_edge_inj ->
    invalid_arg "Eval.relation_for: global semantics has no per-atom relation"

(* Iterate over all assignments extending [mu] that satisfy the per-atom
   binary relations. *)
let iter_join g constraints mu f =
  let n = Graph.nnodes g in
  let nv = Array.length mu in
  let consistent i u =
    List.for_all
      (fun (xi, yi, rel) ->
        (xi <> i || mu.(yi) < 0 || rel u mu.(yi))
        && (yi <> i || mu.(xi) < 0 || rel mu.(xi) u)
        && (xi <> i || yi <> i || rel u u))
      constraints
  in
  (* check pre-assigned variables *)
  let pre_ok =
    List.for_all
      (fun (xi, yi, rel) -> mu.(xi) < 0 || mu.(yi) < 0 || rel mu.(xi) mu.(yi))
      constraints
  in
  if pre_ok then begin
    let rec go i =
      if i = nv then f (Array.copy mu)
      else if mu.(i) >= 0 then go (i + 1)
      else
        for u = 0 to n - 1 do
          Obs.Metrics.incr m_candidates;
          if consistent i u then begin
            mu.(i) <- u;
            go (i + 1);
            mu.(i) <- -1
          end
        done
    in
    go 0
  end

let join_semantics sem d g mu f =
  (* per-atom relations (graph × NFA products) are independent of each
     other: compute them across domains, keep the join sequential.  The
     bulk-dispatch caller is read here and re-established inside each
     worker closure — worker domains start with fresh DLS, so an ambient
     attribution (e.g. "containment" around an expansion check) would
     otherwise be lost at the fan-out boundary. *)
  let caller = Option.value (Bulk_rpq.current_caller ()) ~default:"eval" in
  let constraints =
    Parmap.map
      (fun a ->
        Bulk_rpq.with_caller caller (fun () -> (a.si, a.ti, relation_for sem g a)))
      d.atoms
  in
  iter_join g constraints mu f

(* ------------------------------------------------------------------ *)
(* Global semantics: Q_inj and Q_edge_inj                              *)
(* ------------------------------------------------------------------ *)

(* Both ask for a homomorphism from an expansion that is injective in
   one resource: nodes under Q_inj, edges under Q_edge_inj (Section 7).
   One search threads the atoms' paths for both; a [threading] holds
   what differs. *)
type threading = {
  may_take : Graph.node -> bool;  (** may a variable take this node? *)
  claim : Graph.node -> unit;  (** a variable took it *)
  release : Graph.node -> unit;
  paths : atom -> src:Graph.node -> dst:Graph.node -> (unit -> unit) -> unit;
      (** calls its continuation once per path for the atom, with that
          path's claims held *)
}

(* Query-injective: variable images are claimed; simple paths avoid
   every claimed node and claim their internal nodes. *)
let node_threading g =
  let n = Graph.nnodes g in
  let var_image = Array.make n false and used_internal = Array.make n false in
  let claimed v = var_image.(v) || used_internal.(v) in
  {
    may_take = (fun u -> not (claimed u));
    claim = (fun u -> var_image.(u) <- true);
    release = (fun u -> var_image.(u) <- false);
    paths =
      (fun a ~src ~dst k ->
        Path_search.iter_simple ~avoid_internal:claimed g a.nfa ~src ~dst (fun p ->
            Obs.Metrics.incr m_paths;
            let internals = Path.internal_nodes p in
            List.iter (fun v -> used_internal.(v) <- true) internals;
            k ();
            List.iter (fun v -> used_internal.(v) <- false) internals));
  }

(* Query-edge-injective: trails with pairwise disjoint edges, the
   variable mapping unconstrained — with one exception mirroring
   expansion collapse: two atoms between the SAME variable pair that
   both take the same single letter denote the same expansion edge and
   may share it. *)
let edge_threading g =
  let used_edges : (Graph.edge, unit) Hashtbl.t = Hashtbl.create 32 in
  (* (src var, dst var, letter) ↦ the shared single expansion edge *)
  let shared_single : (int * int * Word.symbol, Graph.edge) Hashtbl.t =
    Hashtbl.create 8
  in
  {
    may_take = (fun _ -> true);
    claim = ignore;
    release = ignore;
    paths =
      (fun { si; ti; nfa } ~src ~dst k ->
        (* reuse branch: a same-variable-pair atom already claimed a
           single-letter edge this atom can collapse onto *)
        let reusable =
          Hashtbl.fold
            (fun (s_v, t_v, letter) edge acc ->
              if s_v = si && t_v = ti && Nfa.accepts nfa [ letter ] then edge :: acc
              else acc)
            shared_single []
        in
        List.iter (fun _edge -> k ()) reusable;
        Path_search.iter_trail ~avoid_edge:(Hashtbl.mem used_edges) g nfa ~src ~dst
          (fun p ->
            Obs.Metrics.incr m_paths;
            let es = Path.edges p in
            List.iter (fun e -> Hashtbl.add used_edges e ()) es;
            let shared_key =
              match es with
              | [ ((_, letter, _) as e) ] ->
                let key = (si, ti, letter) in
                Hashtbl.add shared_single key e;
                Some key
              | _ -> None
            in
            k ();
            Option.iter (fun key -> Hashtbl.remove shared_single key) shared_key;
            List.iter (fun e -> Hashtbl.remove used_edges e) es));
  }

(* For each atom in order, place its source and target, thread a path,
   recurse; then place the variables no atom placed.  Candidates are
   counted at atom endpoints only. *)
let iter_threaded t d g mu f =
  let n = Graph.nnodes g in
  let take i u k =
    mu.(i) <- u;
    t.claim u;
    k ();
    t.release u;
    mu.(i) <- -1
  in
  let place ~count i k =
    if mu.(i) >= 0 then k ()
    else
      for u = 0 to n - 1 do
        if t.may_take u then begin
          if count then Obs.Metrics.incr m_candidates;
          take i u k
        end
      done
  in
  let rec solve = function
    | [] ->
      let rec fill i =
        if i = d.nv then f (Array.copy mu)
        else place ~count:false i (fun () -> fill (i + 1))
      in
      fill 0
    | a :: rest ->
      place ~count:true a.si (fun () ->
          place ~count:true a.ti (fun () ->
              t.paths a ~src:mu.(a.si) ~dst:mu.(a.ti) (fun () -> solve rest)))
  in
  (* pre-assigned variables claim their nodes first; under Q_inj two of
     them on one node end the search here *)
  let claim_fixed u = u < 0 || (t.may_take u && (t.claim u; true)) in
  if Array.for_all claim_fixed mu then solve d.atoms

(* ------------------------------------------------------------------ *)
(* Putting it together                                                  *)
(* ------------------------------------------------------------------ *)

(* Pre-pass hook (identity by default): the analysis layer installs a
   certified optimizer here so [--optimize] / INJCRPQ_OPTIMIZE=on can
   rewrite queries before every evaluation and containment decision
   without creating a dependency cycle (analysis depends on core, not
   vice versa). *)
let preprocessor : (Semantics.t -> Crpq.t -> Crpq.t) ref = ref (fun _ q -> q)

let set_preprocessor f = preprocessor := f

let preprocess sem q = !preprocessor sem q

let prepare sem q =
  let query = preprocess sem q in
  let disjuncts = List.map prepare_disjunct (Crpq.epsilon_free_disjuncts query) in
  { sem; query; disjuncts }

(* [bound] pre-assigns free-variable positions ([None] leaves a position
   open); [f] receives each projected answer tuple. *)
let iter_answers p g ~bound f =
  List.iter
    (fun d ->
      match fixed_assignment g d bound with
      | None -> ()
      | Some mu -> (
        let report mu = f (List.map (fun i -> mu.(i)) d.free) in
        match p.sem with
        | Semantics.St | Semantics.A_inj | Semantics.A_edge_inj ->
          join_semantics p.sem d g mu report
        | Semantics.Q_inj -> iter_threaded (node_threading g) d g mu report
        | Semantics.Q_edge_inj -> iter_threaded (edge_threading g) d g mu report))
    p.disjuncts

let exists_answer p g ~bound =
  try
    iter_answers p g ~bound (fun _ -> raise Found);
    false
  with Found -> true

let open_tuple p = List.map (fun _ -> None) p.query.Crpq.free

(* Every entry point counts one evaluation and, when tracing, records
   its span. *)
let evaluation name run =
  Obs.Metrics.incr m_evals;
  if Obs.Trace.enabled () then Obs.Trace.span name run else run ()

let check_prepared p g tuple =
  evaluation "eval.check" (fun () ->
      if List.length tuple <> List.length p.query.Crpq.free then
        invalid_arg "Eval.check: tuple arity mismatch";
      exists_answer p g ~bound:(List.map Option.some tuple))

let check sem q g tuple = check_prepared (prepare sem q) g tuple

let eval sem q g =
  let p = prepare sem q in
  evaluation "eval.eval" (fun () ->
      let acc = Hashtbl.create 64 in
      iter_answers p g ~bound:(open_tuple p) (fun t -> Hashtbl.replace acc t ());
      List.sort compare (Hashtbl.fold (fun t () l -> t :: l) acc []))

let eval_bool sem q g =
  let p = prepare sem q in
  evaluation "eval.eval_bool" (fun () -> exists_answer p g ~bound:(open_tuple p))

(* ------------------------------------------------------------------ *)
(* Expansion-based reference semantics                                  *)
(* ------------------------------------------------------------------ *)

let hom_from_expansion sem (e : Expansion.expanded) g tuple =
  let pattern, names = Cq.to_graph e.Expansion.cq in
  let index = Hashtbl.create 16 in
  Array.iteri (fun i x -> Hashtbl.replace index x i) names;
  if List.length tuple <> List.length e.Expansion.cq.Cq.free then false
  else begin
    let fixed =
      List.map2 (fun x u -> (Hashtbl.find index x, u)) e.Expansion.cq.Cq.free tuple
    in
    match sem with
    | Semantics.St -> Morphism.exists ~fixed ~pattern ~target:g ()
    | Semantics.Q_inj -> Morphism.exists ~fixed ~injective:true ~pattern ~target:g ()
    | Semantics.A_inj ->
      let distinct_pairs =
        List.map
          (fun (x, y) -> (Hashtbl.find index x, Hashtbl.find index y))
          e.Expansion.atom_related
      in
      Morphism.exists ~fixed ~distinct_pairs ~pattern ~target:g ()
    | Semantics.A_edge_inj ->
      (* edge-injective within each atom expansion *)
      let groups =
        List.map
          (List.map (fun (x, sym, y) ->
               (Hashtbl.find index x, sym, Hashtbl.find index y)))
          e.Expansion.atom_edges
      in
      Morphism.exists ~fixed ~distinct_edge_groups:groups ~pattern ~target:g ()
    | Semantics.Q_edge_inj ->
      (* globally edge-injective: one group with every expansion edge *)
      Morphism.exists ~fixed
        ~distinct_edge_groups:[ Graph.edges pattern ]
        ~pattern ~target:g ()
  end

(* Does [w] label a walk of [g] from [src] to [dst] ([None]: any node)?
   Every semantics maps an atom's expansion path, with the free
   variables on the tuple, onto such a walk, so no profile using
   another word maps. *)
let labels_walk g ~src ~dst w =
  let step us a =
    List.sort_uniq Int.compare (List.concat_map (fun u -> Graph.succ g u a) us)
  in
  let ends =
    List.fold_left step (match src with Some u -> [ u ] | None -> Graph.nodes g) w
  in
  match dst with Some v -> List.mem v ends | None -> ends <> []

let check_via_expansions sem q g tuple =
  let n = Graph.nnodes g in
  let max_len (a : Crpq.atom) =
    match sem with
    (* a shortest walk labelled by L(A) visits each state of the product
       of g with A's NFA at most once *)
    | Semantics.St -> n * (Crpq.nfa a.Crpq.lang).Nfa.nstates
    | Semantics.A_inj | Semantics.Q_inj -> n
    (* a trail uses each edge at most once *)
    | Semantics.A_edge_inj | Semantics.Q_edge_inj -> Graph.nedges g
  in
  (* the node the tuple fixes for a variable: the one it gives at every
     free position of the variable, if that is a node of [g] *)
  let fixed x =
    if List.length tuple <> List.length q.Crpq.free then None
    else
      match List.filter_map (fun (y, u) -> if y = x then Some u else None)
              (List.combine q.Crpq.free tuple)
      with
      | u :: us when u >= 0 && u < n && List.for_all (( = ) u) us -> Some u
      | _ -> None
  in
  let words =
    List.map
      (fun (a : Crpq.atom) ->
        List.filter
          (labels_walk g ~src:(fixed a.Crpq.src) ~dst:(fixed a.Crpq.dst))
          (Regex.enumerate ~max_len:(max_len a) a.Crpq.lang))
      q.Crpq.atoms
  in
  (* the profiles one at a time, up to the first expansion that maps *)
  let rec exists_profile rev_words = function
    | [] ->
      Guard.checkpoint "expansion.profiles";
      let e = Expansion.expand_unchecked q (Array.of_list (List.rev rev_words)) in
      hom_from_expansion sem e g tuple
    | ws :: rest -> List.exists (fun w -> exists_profile (w :: rev_words) rest) ws
  in
  exists_profile [] words
