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
(* Relational join for St / A_inj / A_edge_inj                         *)
(* ------------------------------------------------------------------ *)

(* A relation whose pairs are decided on first probe, by [f]. *)
let on_demand g f =
  let n = Graph.nnodes g in
  let cells = Bytes.make (n * n) '\000' in
  fun u v ->
    match Bytes.get cells ((u * n) + v) with
    | '\001' -> false
    | '\002' -> true
    | _ ->
      let b = f u v in
      Bytes.set cells ((u * n) + v) (if b then '\002' else '\001');
      b

(* Each atom contributes a binary relation over nodes; evaluation is a
   backtracking join over the query variables.  St relations are built
   whole by the bulk engine; the injective ones are probed pair by pair
   (each entry is a witness search), so they are filled on demand. *)
let relation_for sem g a =
  match sem with
  | Semantics.St ->
    let rel = Bulk_rpq.st_relation g a.nfa in
    fun u v -> rel.(u).(v)
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
    on_demand g (fun u v -> Path_search.exists_trail g a.nfa ~src:u ~dst:v)
  | Semantics.Q_inj | Semantics.Q_edge_inj ->
    invalid_arg "Eval.relation_for: global semantics has no per-atom relation"

(* Iterate over all assignments of the [nv] variables satisfying the
   per-atom binary relations; [fixed] pre-assigns variables. *)
let iter_join g nv constraints fixed f =
  let n = Graph.nnodes g in
  let mu = Array.make nv (-1) in
  let ok = ref true in
  List.iter
    (fun (i, u) -> if mu.(i) >= 0 && mu.(i) <> u then ok := false else mu.(i) <- u)
    fixed;
  if !ok && (nv = 0 || n > 0) then begin
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
  end

let join_semantics sem d g fixed f =
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
  iter_join g d.nv constraints fixed f

(* ------------------------------------------------------------------ *)
(* Global semantics: Q_inj and Q_edge_inj                              *)
(* ------------------------------------------------------------------ *)

(* Query-injective: assign variables injectively; thread simple paths
   whose internal nodes avoid every assigned variable image and every
   other path's internal nodes. *)
let iter_qinj d g fixed f =
  let n = Graph.nnodes g in
  let nv = d.nv in
  let mu = Array.make nv (-1) in
  let var_image = Array.make (max n 1) false in
  let used_internal = Array.make (max n 1) false in
  let ok = ref true in
  List.iter
    (fun (i, u) ->
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
      | { si; ti; nfa } :: rest ->
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
    solve_atoms d.atoms
  end

(* Query-edge-injective: edge-injective homomorphism from an expansion.
   Operationally: trails with pairwise disjoint edges, the variable
   mapping unconstrained — with one exception mirroring expansion
   collapse: two atoms between the SAME variable pair that both take the
   same single letter denote the same expansion edge and may share it. *)
let iter_qedge d g fixed f =
  let n = Graph.nnodes g in
  let nv = d.nv in
  let mu = Array.make nv (-1) in
  let used_edges : (Graph.edge, unit) Hashtbl.t = Hashtbl.create 32 in
  (* (src var, dst var, letter) ↦ the shared single expansion edge *)
  let shared_single : (int * int * Word.symbol, Graph.edge) Hashtbl.t =
    Hashtbl.create 8
  in
  let ok = ref true in
  List.iter
    (fun (i, u) -> if mu.(i) >= 0 && mu.(i) <> u then ok := false else mu.(i) <- u)
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
      | { si; ti; nfa } :: rest ->
        let with_path () =
          (* reuse branch: a same-variable-pair atom already claimed a
             single-letter edge this atom can collapse onto *)
          let reusable =
            Hashtbl.fold
              (fun (s_v, t_v, letter) edge acc ->
                if s_v = si && t_v = ti && Nfa.accepts nfa [ letter ] then edge :: acc
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
                  let key = (si, ti, letter) in
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
    solve_atoms d.atoms
  end

(* ------------------------------------------------------------------ *)
(* Putting it together                                                  *)
(* ------------------------------------------------------------------ *)

(* Pre-pass hook (identity by default): the analysis layer installs a
   certified optimizer here so [--optimize] / INJCRPQ_OPTIMIZE=on can
   rewrite queries before every evaluation without creating a
   dependency cycle (analysis depends on core, not vice versa). *)
let preprocessor : (Semantics.t -> Crpq.t -> Crpq.t) ref = ref (fun _ q -> q)

let set_preprocessor f = preprocessor := f

let prepare sem q =
  let query = !preprocessor sem q in
  let disjuncts = List.map prepare_disjunct (Crpq.epsilon_free_disjuncts query) in
  { sem; query; disjuncts }

(* [bound] pre-assigns free-variable positions ([None] leaves a position
   open); [f] receives each projected answer tuple. *)
let iter_answers p g ~bound f =
  List.iter
    (fun d ->
      let fixed =
        List.concat
          (List.map2
             (fun i b -> match b with Some u -> [ (i, u) ] | None -> [])
             d.free bound)
      in
      let report mu = f (List.map (fun i -> mu.(i)) d.free) in
      match p.sem with
      | Semantics.St | Semantics.A_inj | Semantics.A_edge_inj ->
        join_semantics p.sem d g fixed report
      | Semantics.Q_inj -> iter_qinj d g fixed report
      | Semantics.Q_edge_inj -> iter_qedge d g fixed report)
    p.disjuncts

let check_impl p g tuple =
  let free = p.query.Crpq.free in
  if List.length tuple <> List.length free then
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
      free tuple
  in
  consistent
  &&
  try
    iter_answers p g ~bound:(List.map Option.some tuple) (fun _ -> raise Found);
    false
  with Found -> true

let check_prepared p g tuple =
  Obs.Metrics.incr m_evals;
  if Obs.Trace.enabled () then
    Obs.Trace.span "eval.check" (fun () -> check_impl p g tuple)
  else check_impl p g tuple

let check sem q g tuple = check_prepared (prepare sem q) g tuple

let eval_impl p g =
  let acc = Hashtbl.create 64 in
  let bound = List.map (fun _ -> None) p.query.Crpq.free in
  iter_answers p g ~bound (fun t -> Hashtbl.replace acc t ());
  List.sort compare (Hashtbl.fold (fun t () l -> t :: l) acc [])

let eval sem q g =
  Obs.Metrics.incr m_evals;
  let p = prepare sem q in
  if Obs.Trace.enabled () then Obs.Trace.span "eval.eval" (fun () -> eval_impl p g)
  else eval_impl p g

let eval_bool_impl p g =
  let bound = List.map (fun _ -> None) p.query.Crpq.free in
  try
    iter_answers p g ~bound (fun _ -> raise Found);
    false
  with Found -> true

let eval_bool sem q g =
  Obs.Metrics.incr m_evals;
  let p = prepare sem q in
  if Obs.Trace.enabled () then
    Obs.Trace.span "eval.eval_bool" (fun () -> eval_bool_impl p g)
  else eval_bool_impl p g

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
