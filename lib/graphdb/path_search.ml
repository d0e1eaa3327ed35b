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

(* One searcher serves every simple-path search over a (graph, automaton)
   pair.  It interns the transitions once and fills the backward
   co-reachability table of a destination on first use, so the n² pairs
   of a relation cost one product BFS per destination instead of one per
   pair.  [visited] and [path] are scratch shared by the searches: every
   exit from a search, [Found] and guard trips included, clears them,
   and a search may not start another on the same searcher from its
   callback. *)
type simple_searcher = {
  g : Graph.t;
  nfa : Nfa.t;
  m : int;
  nl : int;
  next : int list array; (* next.(q * nl + ai): successors of q on label ai *)
  rdelta : (int * int) list array;
  coreach : Bytes.t option array; (* per destination, bit u * m + q *)
  queue : int array; (* the co-reachability BFS queue *)
  visited : bool array;
  path : int array; (* the marked nodes, [depth] of them *)
  mutable depth : int;
}

let simple_searcher g nfa =
  let m = nfa.Nfa.nstates and nl = Graph.nlabels g and n = Graph.nnodes g in
  let next = Array.make (max (m * nl) 1) [] in
  Array.iteri
    (fun q trans ->
      List.iter
        (fun (ai, q') -> next.((q * nl) + ai) <- q' :: next.((q * nl) + ai))
        trans)
    (intern_delta g nfa);
  Array.iteri (fun i l -> next.(i) <- List.sort_uniq Int.compare l) next;
  { g; nfa; m; nl; next; rdelta = intern_delta_rev g nfa;
    coreach = Array.make (max n 1) None; queue = Array.make (max (n * m) 1) 0;
    visited = Array.make (max n 1) false; path = Array.make (max n 1) 0; depth = 0 }

let bit_get b i = Char.code (Bytes.get b (i lsr 3)) land (1 lsl (i land 7)) <> 0

let bit_set b i =
  Bytes.set b (i lsr 3) (Char.chr (Char.code (Bytes.get b (i lsr 3)) lor (1 lsl (i land 7))))

(* Backward product reachability towards (dst, some final state): a
   necessary condition for the pruned forward search. *)
let co_reach s dst =
  match s.coreach.(dst) with
  | Some b -> b
  | None ->
    let m = s.m in
    let seen = Bytes.make (((Graph.nnodes s.g * m) + 7) / 8) '\000' in
    let queue = s.queue and tail = ref 0 in
    let push u q =
      let c = (u * m) + q in
      if not (bit_get seen c) then begin
        bit_set seen c;
        Obs.Metrics.incr m_product_states;
        queue.(!tail) <- c;
        incr tail
      end
    in
    Array.iteri (fun q f -> if f then push dst q) s.nfa.Nfa.finals;
    let head = ref 0 in
    while !head < !tail do
      Guard.checkpoint "path_search.product";
      let c = queue.(!head) in
      incr head;
      let v = c / m and q' = c mod m in
      List.iter
        (fun (ai, q) ->
          let preds = Graph.pred_ids s.g v ai in
          for i = 0 to Array.length preds - 1 do
            push preds.(i) q
          done)
        s.rdelta.(q')
    done;
    s.coreach.(dst) <- Some seen;
    seen

(* The state set reached from [states] on label id [ai]. *)
let step s states ai =
  match states with
  | [ q ] -> s.next.((q * s.nl) + ai)
  | _ ->
    List.fold_left
      (fun acc q ->
        List.fold_left
          (fun acc q' -> if List.mem q' acc then acc else q' :: acc)
          acc
          s.next.((q * s.nl) + ai))
      [] states

let unmark s =
  for i = 0 to s.depth - 1 do
    s.visited.(s.path.(i)) <- false
  done;
  s.depth <- 0

(* The DFS takes the edges of a node in [Graph.out]'s order (label, then
   successor, descending), which fixes the enumeration order and hence
   the first witness. *)
let iter_simple_with ?(avoid_internal = fun _ -> false) s ~src ~dst f =
  let n = Graph.nnodes s.g in
  if s.depth > 0 then invalid_arg "Path_search: nested search on one searcher";
  if src < 0 || src >= n || dst < 0 || dst >= n then ()
  else begin
    let nfa = s.nfa in
    if src = dst && Nfa.accepts_eps nfa then f (Path.empty src);
    let m = s.m in
    let coreach = co_reach s dst in
    let live v states = List.exists (fun q -> bit_get coreach ((v * m) + q)) states in
    let mark v =
      s.visited.(v) <- true;
      s.path.(s.depth) <- v;
      s.depth <- s.depth + 1
    in
    let release () =
      s.depth <- s.depth - 1;
      s.visited.(s.path.(s.depth)) <- false
    in
    let rec go u states rev_steps =
      Guard.checkpoint "path_search.simple";
      for ai = s.nl - 1 downto 0 do
        let succs = Graph.succ_ids s.g u ai in
        if Array.length succs > 0 then begin
          let states' = step s states ai in
          if states' <> [] then begin
            let a = Graph.label_name s.g ai in
            for i = Array.length succs - 1 downto 0 do
              let v = succs.(i) in
              if v = dst then begin
                if List.exists (Nfa.is_final nfa) states' then begin
                  let steps = List.rev ((a, v) :: rev_steps) in
                  f { Path.src; steps }
                end
              end
              else if
                (not s.visited.(v)) && (not (avoid_internal v)) && live v states'
              then begin
                mark v;
                Guard.descend "path_search.simple" (fun () ->
                    go v states' ((a, v) :: rev_steps));
                release ();
                Obs.Metrics.incr m_simple_backtracks
              end
            done
          end
        end
      done
    in
    (* a source none of whose initial product states reaches the
       destination has no accepted path to it *)
    if live src nfa.Nfa.initials then begin
      mark src;
      match go src nfa.Nfa.initials [] with
      | () -> unmark s
      | exception e ->
        unmark s;
        raise e
    end
  end

let find_simple_with ?avoid_internal s ~src ~dst =
  let result = ref None in
  (try
     iter_simple_with ?avoid_internal s ~src ~dst (fun p ->
         result := Some p;
         raise Found)
   with Found -> ());
  !result

let iter_simple ?avoid_internal g nfa ~src ~dst f =
  iter_simple_with ?avoid_internal (simple_searcher g nfa) ~src ~dst f

let find_simple ?avoid_internal g nfa ~src ~dst =
  find_simple_with ?avoid_internal (simple_searcher g nfa) ~src ~dst

let exists_simple ?avoid_internal g nfa ~src ~dst =
  find_simple ?avoid_internal g nfa ~src ~dst <> None

let all_simple g nfa ~src ~dst =
  let acc = ref [] in
  iter_simple g nfa ~src ~dst (fun p -> acc := p :: !acc);
  List.rev !acc

let simple_reach_relation g nfa =
  let n = Graph.nnodes g in
  let s = simple_searcher g nfa in
  let rel = Array.make_matrix (max n 1) (max n 1) false in
  for v = 0 to n - 1 do
    for u = 0 to n - 1 do
      rel.(u).(v) <- find_simple_with s ~src:u ~dst:v <> None
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
