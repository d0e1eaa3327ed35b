exception Found

(* Search telemetry (no-ops unless [Obs.Metrics] is enabled): candidate
   nodes examined by the join / witness searches, simple paths threaded
   by the query-injective engine, and evaluations performed. *)
let m_candidates = Obs.Metrics.counter "eval.candidates_tried"

let m_paths = Obs.Metrics.counter "eval.paths_threaded"

let m_evals = Obs.Metrics.counter "eval.evaluations"

(* ------------------------------------------------------------------ *)
(* Relational join for St / A_inj / A_edge_inj                         *)
(* ------------------------------------------------------------------ *)

(* Each atom contributes a binary relation over nodes; evaluation is a
   backtracking join over the query variables. *)
let relation_for sem g (a : Crpq.atom) =
  let nfa = Crpq.nfa a.Crpq.lang in
  match sem with
  | Semantics.St -> Bulk_rpq.st_relation g nfa
  | Semantics.A_inj ->
    let rel = Path_search.simple_reach_relation g nfa in
    (* an atom x -[L]-> y with syntactically distinct variables must map
       to a simple path, whose endpoints are distinct: clear the
       diagonal (it holds simple-cycle reachability) *)
    if not (String.equal a.Crpq.src a.Crpq.dst) then
      Array.iteri (fun u row -> row.(u) <- false) rel;
    rel
  | Semantics.A_edge_inj ->
    let n = Graph.nnodes g in
    let rel = Array.make_matrix (max n 1) (max n 1) false in
    for u = 0 to n - 1 do
      for v = 0 to n - 1 do
        rel.(u).(v) <- Path_search.exists_trail g nfa ~src:u ~dst:v
      done
    done;
    rel
  | Semantics.Q_inj | Semantics.Q_edge_inj ->
    invalid_arg "Eval.relation_for: global semantics has no per-atom relation"

(* Iterate over all variable assignments satisfying the per-atom binary
   relations; [fixed] pre-assigns variables. *)
let iter_join g vars constraints fixed f =
  let n = Graph.nnodes g in
  let nv = Array.length vars in
  let index = Hashtbl.create 16 in
  Array.iteri (fun i x -> Hashtbl.replace index x i) vars;
  let mu = Array.make nv (-1) in
  let ok = ref true in
  List.iter
    (fun (x, u) ->
      let i = Hashtbl.find index x in
      if mu.(i) >= 0 && mu.(i) <> u then ok := false else mu.(i) <- u)
    fixed;
  if !ok && (nv = 0 || n > 0) then begin
    let cons =
      List.map
        (fun (x, y, rel) -> (Hashtbl.find index x, Hashtbl.find index y, rel))
        constraints
    in
    let consistent i u =
      List.for_all
        (fun (xi, yi, rel) ->
          (xi <> i || mu.(yi) < 0 || rel.(u).(mu.(yi)))
          && (yi <> i || mu.(xi) < 0 || rel.(mu.(xi)).(u))
          && (xi <> i || yi <> i || rel.(u).(u)))
        cons
    in
    (* check pre-assigned variables *)
    let pre_ok =
      List.for_all
        (fun (xi, yi, rel) ->
          mu.(xi) < 0 || mu.(yi) < 0 || rel.(mu.(xi)).(mu.(yi)))
        cons
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
  end

let join_semantics sem q g fixed f =
  let vars = Array.of_list (Crpq.vars q) in
  (* per-atom relations (graph × NFA products) are independent of each
     other: compute them across domains, keep the join sequential.  The
     bulk-dispatch caller is read here and re-established inside each
     worker closure — worker domains start with fresh DLS, so an ambient
     attribution (e.g. "containment" around an expansion check) would
     otherwise be lost at the fan-out boundary. *)
  let caller = Option.value (Bulk_rpq.current_caller ()) ~default:"eval" in
  let constraints =
    Parmap.map
      (fun (a : Crpq.atom) ->
        Bulk_rpq.with_caller caller (fun () ->
            (a.Crpq.src, a.Crpq.dst, relation_for sem g a)))
      q.Crpq.atoms
  in
  iter_join g vars constraints fixed f

(* ------------------------------------------------------------------ *)
(* Global semantics: Q_inj and Q_edge_inj                              *)
(* ------------------------------------------------------------------ *)

(* Query-injective: assign variables injectively; thread simple paths
   whose internal nodes avoid every assigned variable image and every
   other path's internal nodes. *)
let iter_qinj q g fixed f =
  let n = Graph.nnodes g in
  let vars = Array.of_list (Crpq.vars q) in
  let nv = Array.length vars in
  let index = Hashtbl.create 16 in
  Array.iteri (fun i x -> Hashtbl.replace index x i) vars;
  let mu = Array.make nv (-1) in
  let var_image = Array.make (max n 1) false in
  let used_internal = Array.make (max n 1) false in
  let ok = ref true in
  List.iter
    (fun (x, u) ->
      let i = Hashtbl.find index x in
      if mu.(i) >= 0 && mu.(i) <> u then ok := false
      else if mu.(i) < 0 then begin
        if var_image.(u) then ok := false
        else begin
          mu.(i) <- u;
          var_image.(u) <- true
        end
      end)
    fixed;
  if !ok && (nv = 0 || n > 0) then begin
    let assign i u =
      Obs.Metrics.incr m_candidates;
      mu.(i) <- u;
      var_image.(u) <- true
    in
    let unassign i u =
      mu.(i) <- -1;
      var_image.(u) <- false
    in
    let candidates () =
      List.filter
        (fun u -> (not var_image.(u)) && not used_internal.(u))
        (List.init n (fun u -> u))
    in
    let rec solve_atoms atoms =
      match atoms with
      | [] ->
        (* assign leftover variables injectively *)
        let rec fill i =
          if i = nv then f (Array.copy mu)
          else if mu.(i) >= 0 then fill (i + 1)
          else
            List.iter
              (fun u ->
                assign i u;
                fill (i + 1);
                unassign i u)
              (candidates ())
        in
        fill 0
      | (a : Crpq.atom) :: rest ->
        let nfa = Crpq.nfa a.Crpq.lang in
        let si = Hashtbl.find index a.Crpq.src in
        let ti = Hashtbl.find index a.Crpq.dst in
        let with_path () =
          let src = mu.(si) and dst = mu.(ti) in
          Path_search.iter_simple
            ~avoid_internal:(fun v -> var_image.(v) || used_internal.(v))
            g nfa ~src ~dst
            (fun p ->
              Obs.Metrics.incr m_paths;
              let internals = Path.internal_nodes p in
              List.iter (fun v -> used_internal.(v) <- true) internals;
              solve_atoms rest;
              List.iter (fun v -> used_internal.(v) <- false) internals)
        in
        let with_dst () =
          if mu.(ti) >= 0 then with_path ()
          else
            List.iter
              (fun u ->
                assign ti u;
                with_path ();
                unassign ti u)
              (candidates ())
        in
        if mu.(si) >= 0 then with_dst ()
        else
          List.iter
            (fun u ->
              assign si u;
              with_dst ();
              unassign si u)
            (candidates ())
    in
    solve_atoms q.Crpq.atoms
  end

(* Query-edge-injective: edge-injective homomorphism from an expansion.
   Operationally: trails with pairwise disjoint edges, the variable
   mapping unconstrained — with one exception mirroring expansion
   collapse: two atoms between the SAME variable pair that both take the
   same single letter denote the same expansion edge and may share it. *)
let iter_qedge q g fixed f =
  let n = Graph.nnodes g in
  let vars = Array.of_list (Crpq.vars q) in
  let nv = Array.length vars in
  let index = Hashtbl.create 16 in
  Array.iteri (fun i x -> Hashtbl.replace index x i) vars;
  let mu = Array.make nv (-1) in
  let used_edges : (Graph.edge, unit) Hashtbl.t = Hashtbl.create 32 in
  (* (src var, dst var, letter) ↦ the shared single expansion edge *)
  let shared_single : (Cq.var * Cq.var * Word.symbol, Graph.edge) Hashtbl.t =
    Hashtbl.create 8
  in
  let ok = ref true in
  List.iter
    (fun (x, u) ->
      let i = Hashtbl.find index x in
      if mu.(i) >= 0 && mu.(i) <> u then ok := false else mu.(i) <- u)
    fixed;
  if !ok && (nv = 0 || n > 0) then begin
    let rec solve_atoms atoms =
      match atoms with
      | [] ->
        let rec fill i =
          if i = nv then f (Array.copy mu)
          else if mu.(i) >= 0 then fill (i + 1)
          else
            for u = 0 to n - 1 do
              mu.(i) <- u;
              fill (i + 1);
              mu.(i) <- -1
            done
        in
        fill 0
      | (a : Crpq.atom) :: rest ->
        let nfa = Crpq.nfa a.Crpq.lang in
        let si = Hashtbl.find index a.Crpq.src in
        let ti = Hashtbl.find index a.Crpq.dst in
        let with_path () =
          (* reuse branch: a same-variable-pair atom already claimed a
             single-letter edge this atom can collapse onto *)
          let reusable =
            Hashtbl.fold
              (fun (s_v, t_v, letter) edge acc ->
                if s_v = a.Crpq.src && t_v = a.Crpq.dst && Nfa.accepts nfa [ letter ]
                then edge :: acc
                else acc)
              shared_single []
          in
          List.iter (fun _edge -> solve_atoms rest) reusable;
          Path_search.iter_trail
            ~avoid_edge:(Hashtbl.mem used_edges)
            g nfa ~src:mu.(si) ~dst:mu.(ti)
            (fun p ->
              Obs.Metrics.incr m_paths;
              let es = Path.edges p in
              List.iter (fun e -> Hashtbl.add used_edges e ()) es;
              let shared_key =
                match es with
                | [ ((_, letter, _) as e) ] ->
                  let key = (a.Crpq.src, a.Crpq.dst, letter) in
                  Hashtbl.add shared_single key e;
                  Some key
                | _ -> None
              in
              solve_atoms rest;
              Option.iter (fun key -> Hashtbl.remove shared_single key) shared_key;
              List.iter (fun e -> Hashtbl.remove used_edges e) es)
        in
        let with_dst () =
          if mu.(ti) >= 0 then with_path ()
          else
            for u = 0 to n - 1 do
              Obs.Metrics.incr m_candidates;
              mu.(ti) <- u;
              with_path ();
              mu.(ti) <- -1
            done
        in
        if mu.(si) >= 0 then with_dst ()
        else
          for u = 0 to n - 1 do
            Obs.Metrics.incr m_candidates;
            mu.(si) <- u;
            with_dst ();
            mu.(si) <- -1
          done
    in
    solve_atoms q.Crpq.atoms
  end

(* ------------------------------------------------------------------ *)
(* Putting it together                                                  *)
(* ------------------------------------------------------------------ *)

(* [bound] pre-assigns free-variable positions ([None] leaves a position
   open); [f] receives each projected answer tuple. *)
let iter_answers sem q g ~bound f =
  let disjuncts = Crpq.epsilon_free_disjuncts q in
  List.iter
    (fun d ->
      let fixed_d =
        List.concat
          (List.map2
             (fun x b -> match b with Some u -> [ (x, u) ] | None -> [])
             d.Crpq.free bound)
      in
      let report mu =
        let vars = Array.of_list (Crpq.vars d) in
        let index = Hashtbl.create 16 in
        Array.iteri (fun i x -> Hashtbl.replace index x i) vars;
        f (List.map (fun x -> mu.(Hashtbl.find index x)) d.Crpq.free)
      in
      match sem with
      | Semantics.St | Semantics.A_inj | Semantics.A_edge_inj ->
        join_semantics sem d g fixed_d report
      | Semantics.Q_inj -> iter_qinj d g fixed_d report
      | Semantics.Q_edge_inj -> iter_qedge d g fixed_d report)
    disjuncts

let check_impl sem q g tuple =
  if List.length tuple <> List.length q.Crpq.free then
    invalid_arg "Eval.check: tuple arity mismatch";
  (* a node outside the graph is in no answer (and -1 would read as the
     join's "unassigned" marker) *)
  let n = Graph.nnodes g in
  List.for_all (fun u -> u >= 0 && u < n) tuple
  &&
  (* repeated free variables must receive equal nodes *)
  let tbl = Hashtbl.create 8 in
  let consistent =
    List.for_all2
      (fun x u ->
        match Hashtbl.find_opt tbl x with
        | Some v -> v = u
        | None ->
          Hashtbl.add tbl x u;
          true)
      q.Crpq.free tuple
  in
  consistent
  &&
  try
    iter_answers sem q g ~bound:(List.map Option.some tuple) (fun _ ->
        raise Found);
    false
  with Found -> true

(* Pre-pass hook (identity by default): the analysis layer installs a
   certified optimizer here so [--optimize] / INJCRPQ_OPTIMIZE=on can
   rewrite queries before every evaluation without creating a
   dependency cycle (analysis depends on core, not vice versa). *)
let preprocessor : (Semantics.t -> Crpq.t -> Crpq.t) ref = ref (fun _ q -> q)

let set_preprocessor f = preprocessor := f

let check sem q g tuple =
  Obs.Metrics.incr m_evals;
  let q = !preprocessor sem q in
  if Obs.Trace.enabled () then
    Obs.Trace.span "eval.check" (fun () -> check_impl sem q g tuple)
  else check_impl sem q g tuple

let eval_impl sem q g =
  let acc = Hashtbl.create 64 in
  let bound = List.map (fun _ -> None) q.Crpq.free in
  iter_answers sem q g ~bound (fun t -> Hashtbl.replace acc t ());
  List.sort compare (Hashtbl.fold (fun t () l -> t :: l) acc [])

let eval sem q g =
  Obs.Metrics.incr m_evals;
  let q = !preprocessor sem q in
  if Obs.Trace.enabled () then Obs.Trace.span "eval.eval" (fun () -> eval_impl sem q g)
  else eval_impl sem q g

let eval_bool_impl sem q g =
  let bound = List.map (fun _ -> None) q.Crpq.free in
  try
    iter_answers sem q g ~bound (fun _ -> raise Found);
    false
  with Found -> true

let eval_bool sem q g =
  Obs.Metrics.incr m_evals;
  let q = !preprocessor sem q in
  if Obs.Trace.enabled () then
    Obs.Trace.span "eval.eval_bool" (fun () -> eval_bool_impl sem q g)
  else eval_bool_impl sem q g

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

(* Does [w] label a walk of [g]?  Every semantics maps the edges of an
   expansion onto edges of [g], so no profile using another word maps. *)
let labels_walk g w =
  let step us a =
    List.sort_uniq Int.compare (List.concat_map (fun u -> Graph.succ g u a) us)
  in
  List.fold_left step (Graph.nodes g) w <> []

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
  let words =
    List.map
      (fun (a : Crpq.atom) ->
        List.filter (labels_walk g) (Regex.enumerate ~max_len:(max_len a) a.Crpq.lang))
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
