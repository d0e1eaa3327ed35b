type node = Graph.node

(* Search telemetry (no-ops unless [Obs.Metrics] is enabled).  Product
   states count every (graph node, automaton state) pair discovered by a
   product BFS (forward, backward, or with parent pointers); backtracks
   count nodes released by the simple-path search and edges released by
   the trail search. *)
let m_product_states = Obs.Metrics.counter "path_search.product_states"

let m_simple_backtracks = Obs.Metrics.counter "path_search.simple_backtracks"

let m_trail_backtracks = Obs.Metrics.counter "path_search.trail_backtracks"

exception Found

(* ------------------------------------------------------------------ *)
(* Standard semantics: BFS over the product graph × automaton.         *)
(* ------------------------------------------------------------------ *)

(* The product searches run on interned label ids: the automaton's
   transitions are re-keyed by the graph's label ids once up front
   (transitions on labels absent from the graph can never fire and are
   dropped), after which the inner loops are array scans with no string
   comparison. *)

(* [delta_ids.(q)] lists [(ai, q')] for each transition of [q] whose
   label occurs in [g]. *)
let intern_delta g nfa =
  Array.map
    (fun trans ->
      List.filter_map
        (fun (a, q') ->
          match Graph.label_id g a with
          | Some ai -> Some (ai, q')
          | None -> None)
        trans)
    nfa.Nfa.delta

(* Reversed interned transitions: [rdelta.(q')] lists [(ai, q)] for
   each graph-relevant transition {m q \xrightarrow{a} q'}. *)
let intern_delta_rev g nfa =
  let rdelta = Array.make nfa.Nfa.nstates [] in
  Array.iteri
    (fun q trans ->
      List.iter
        (fun (a, q') ->
          match Graph.label_id g a with
          | Some ai -> rdelta.(q') <- (ai, q) :: rdelta.(q')
          | None -> ())
        trans)
    nfa.Nfa.delta;
  rdelta

(* Product states are coded as [u * nstates + q]. *)
let product_bfs g nfa srcs =
  let n = Graph.nnodes g in
  let m = nfa.Nfa.nstates in
  let delta_ids = intern_delta g nfa in
  let seen = Array.make (max (n * m) 1) false in
  let queue = Queue.create () in
  let push u q =
    let c = (u * m) + q in
    if not seen.(c) then begin
      seen.(c) <- true;
      Obs.Metrics.incr m_product_states;
      Queue.add (u, q) queue
    end
  in
  List.iter (fun (u, q) -> push u q) srcs;
  while not (Queue.is_empty queue) do
    Guard.checkpoint "path_search.product";
    let u, q = Queue.pop queue in
    List.iter
      (fun (ai, q') ->
        let succs = Graph.succ_ids g u ai in
        for i = 0 to Array.length succs - 1 do
          push succs.(i) q'
        done)
      delta_ids.(q)
  done;
  seen

let reachable g nfa src =
  if src < 0 || src >= Graph.nnodes g then []
  else begin
    let m = nfa.Nfa.nstates in
    let starts = List.map (fun q -> (src, q)) nfa.Nfa.initials in
    let seen = product_bfs g nfa starts in
    List.filter
      (fun v ->
        List.exists
          (fun q -> nfa.Nfa.finals.(q) && seen.((v * m) + q))
          (List.init m (fun i -> i)))
      (Graph.nodes g)
  end

let reach_relation g nfa =
  let n = Graph.nnodes g in
  let rel = Array.make_matrix (max n 1) (max n 1) false in
  List.iter
    (fun u -> List.iter (fun v -> rel.(u).(v) <- true) (reachable g nfa u))
    (Graph.nodes g);
  rel

let exists_path g nfa ~src ~dst =
  List.mem dst (reachable g nfa src)

let find_path g nfa ~src ~dst =
  (* BFS with parent pointers over the product. *)
  let m = nfa.Nfa.nstates in
  let n = Graph.nnodes g in
  if src < 0 || src >= n then None
  else begin
    let delta_ids = intern_delta g nfa in
    let parent = Array.make (n * m) None in
    let seen = Array.make (n * m) false in
    let queue = Queue.create () in
    let push u q from =
      let c = (u * m) + q in
      if not seen.(c) then begin
        seen.(c) <- true;
        Obs.Metrics.incr m_product_states;
        parent.(c) <- from;
        Queue.add (u, q) queue
      end
    in
    List.iter (fun q -> push src q None) nfa.Nfa.initials;
    let goal = ref None in
    while (not (Queue.is_empty queue)) && !goal = None do
      Guard.checkpoint "path_search.product";
      let u, q = Queue.pop queue in
      if u = dst && nfa.Nfa.finals.(q) then goal := Some (u, q)
      else
        List.iter
          (fun (ai, q') ->
            let a = Graph.label_name g ai in
            let succs = Graph.succ_ids g u ai in
            for i = 0 to Array.length succs - 1 do
              push succs.(i) q' (Some (u, q, a))
            done)
          delta_ids.(q)
    done;
    match !goal with
    | None -> None
    | Some (u0, q0) ->
      let rec build u q acc =
        match parent.((u * m) + q) with
        | None -> { Path.src = u; steps = acc }
        | Some (pu, pq, a) -> build pu pq ((a, u) :: acc)
      in
      Some (build u0 q0 [])
  end

(* ------------------------------------------------------------------ *)
(* Simple paths: backtracking with product-reachability pruning.       *)
(* ------------------------------------------------------------------ *)

(* Backward product reachability towards (dst, some final state): a
   necessary condition for the pruned forward search. *)
let co_reach g nfa dst =
  let m = nfa.Nfa.nstates in
  let n = Graph.nnodes g in
  let seen = Array.make (max (n * m) 1) false in
  let queue = Queue.create () in
  let push u q =
    let c = (u * m) + q in
    if not seen.(c) then begin
      seen.(c) <- true;
      Obs.Metrics.incr m_product_states;
      Queue.add (u, q) queue
    end
  in
  Array.iteri (fun q f -> if f then push dst q) nfa.Nfa.finals;
  (* backward edges of the product *)
  let rdelta = intern_delta_rev g nfa in
  while not (Queue.is_empty queue) do
    Guard.checkpoint "path_search.product";
    let v, q' = Queue.pop queue in
    List.iter
      (fun (ai, q) ->
        let preds = Graph.pred_ids g v ai in
        for i = 0 to Array.length preds - 1 do
          push preds.(i) q
        done)
      rdelta.(q')
  done;
  seen

let iter_simple ?(avoid_internal = fun _ -> false) g nfa ~src ~dst f =
  let n = Graph.nnodes g in
  if src < 0 || src >= n || dst < 0 || dst >= n then ()
  else begin
    if src = dst && Nfa.accepts_eps nfa then f (Path.empty src);
    let m = nfa.Nfa.nstates in
    let coreach = co_reach g nfa dst in
    let visited = Array.make n false in
    visited.(src) <- true;
    let rec go u states rev_steps =
      Guard.checkpoint "path_search.simple";
      List.iter
        (fun (a, v) ->
          let states' = Nfa.next_set nfa states a in
          if states' <> [] then begin
            if v = dst then begin
              if List.exists (Nfa.is_final nfa) states' then begin
                let steps = List.rev ((a, v) :: rev_steps) in
                f { Path.src; steps }
              end
            end
            else if
              (not visited.(v))
              && (not (avoid_internal v))
              && List.exists (fun q -> coreach.((v * m) + q)) states'
            then begin
              visited.(v) <- true;
              Guard.descend "path_search.simple" (fun () ->
                  go v states' ((a, v) :: rev_steps));
              visited.(v) <- false;
              Obs.Metrics.incr m_simple_backtracks
            end
          end)
        (Graph.out g u)
    in
    go src nfa.Nfa.initials []
  end

let find_simple ?avoid_internal g nfa ~src ~dst =
  let result = ref None in
  (try
     iter_simple ?avoid_internal g nfa ~src ~dst (fun p ->
         result := Some p;
         raise Found)
   with Found -> ());
  !result

let exists_simple ?avoid_internal g nfa ~src ~dst =
  find_simple ?avoid_internal g nfa ~src ~dst <> None

let all_simple g nfa ~src ~dst =
  let acc = ref [] in
  iter_simple g nfa ~src ~dst (fun p -> acc := p :: !acc);
  List.rev !acc

let simple_reach_relation g nfa =
  let n = Graph.nnodes g in
  let rel = Array.make_matrix (max n 1) (max n 1) false in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      rel.(u).(v) <- exists_simple g nfa ~src:u ~dst:v
    done
  done;
  rel

(* ------------------------------------------------------------------ *)
(* Trails: backtracking over unused edges.                             *)
(* ------------------------------------------------------------------ *)

let iter_trail ?(avoid_edge = fun _ -> false) g nfa ~src ~dst f =
  let n = Graph.nnodes g in
  if src < 0 || src >= n || dst < 0 || dst >= n then ()
  else begin
    if src = dst && Nfa.accepts_eps nfa then f (Path.empty src);
    let used = Hashtbl.create 16 in
    let rec go u states rev_steps =
      Guard.checkpoint "path_search.trail";
      List.iter
        (fun (a, v) ->
          let e = (u, a, v) in
          if (not (Hashtbl.mem used e)) && not (avoid_edge e) then begin
            let states' = Nfa.next_set nfa states a in
            if states' <> [] then begin
              Hashtbl.add used e ();
              if v = dst && List.exists (Nfa.is_final nfa) states' then begin
                let steps = List.rev ((a, v) :: rev_steps) in
                f { Path.src; steps }
              end;
              Guard.descend "path_search.trail" (fun () ->
                  go v states' ((a, v) :: rev_steps));
              Hashtbl.remove used e;
              Obs.Metrics.incr m_trail_backtracks
            end
          end)
        (Graph.out g u)
    in
    go src nfa.Nfa.initials []
  end

let find_trail ?avoid_edge g nfa ~src ~dst =
  let result = ref None in
  (try
     iter_trail ?avoid_edge g nfa ~src ~dst (fun p ->
         result := Some p;
         raise Found)
   with Found -> ());
  !result

let exists_trail ?avoid_edge g nfa ~src ~dst =
  find_trail ?avoid_edge g nfa ~src ~dst <> None
