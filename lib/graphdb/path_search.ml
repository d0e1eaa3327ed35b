type node = Graph.node

(* Search telemetry (no-ops unless [Obs.Metrics] is enabled).  Product
   states count every (graph node, automaton state) pair the product BFS
   discovers, forward or backward; backtracks count nodes released by
   the simple-path search and edges released by the trail search. *)
let m_product_states = Obs.Metrics.counter "path_search.product_states"

let m_simple_backtracks = Obs.Metrics.counter "path_search.simple_backtracks"

let m_trail_backtracks = Obs.Metrics.counter "path_search.trail_backtracks"

exception Found

(* The searches run on interned label ids: the automaton's transitions
   are re-keyed by the graph's label ids once up front (transitions on
   labels absent from the graph can never fire and are dropped), after
   which the inner loops are array scans with no string comparison. *)

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

(* ------------------------------------------------------------------ *)
(* One searcher per (graph, automaton)                                 *)
(* ------------------------------------------------------------------ *)

(* A searcher holds the interned transitions both ways and the scratch
   state of its searches; product states are coded [u * m + q].  Every
   exit from a search, [Found] and guard trips included, clears the
   forward BFS's [seen] bits (exactly those it set) and the
   backtracking stack ([marks] and [path], [depth] of them: nodes, or
   edge ids for trails).  A search may not start another on the same
   searcher from its callback.  Trails number the edges on first use:
   [u]'s out-edges get the ids [eoff.(u) .. eoff.(u + 1) - 1], by label
   id, then successor. *)
type simple_searcher = {
  g : Graph.t;
  nfa : Nfa.t;
  m : int;
  nl : int;
  delta : (int * int) list array; (* delta.(q): (ai, q') *)
  rdelta : (int * int) list array; (* rdelta.(q'): (ai, q) *)
  next : int list array; (* next.(q * nl + ai): successors of q on label ai *)
  coreach : Bytes.t option array; (* per destination, bit u * m + q *)
  queue : int array;
  mutable tail : int; (* states discovered by the last BFS *)
  seen : Bytes.t; (* the forward BFS's bits, all clear between searches *)
  mutable marks : bool array;
  mutable path : int array;
  mutable depth : int;
  mutable eoff : int array; (* [||] until a trail search *)
}

let simple_searcher g nfa =
  let m = nfa.Nfa.nstates and nl = Graph.nlabels g and n = Graph.nnodes g in
  let delta = intern_delta g nfa in
  let next = Array.make (max (m * nl) 1) [] and rdelta = Array.make m [] in
  Array.iteri
    (fun q trans ->
      List.iter
        (fun (ai, q') ->
          next.((q * nl) + ai) <- q' :: next.((q * nl) + ai);
          rdelta.(q') <- (ai, q) :: rdelta.(q'))
        trans)
    delta;
  Array.iteri (fun i l -> next.(i) <- List.sort_uniq Int.compare l) next;
  { g; nfa; m; nl; delta; rdelta; next; coreach = Array.make (max n 1) None;
    queue = Array.make (max (n * m) 1) 0; tail = 0;
    seen = Bytes.make (((n * m) + 7) / 8) '\000'; marks = Array.make (max n 1) false;
    path = Array.make (max n 1) 0; depth = 0; eoff = [||] }

let bit_get b i = Char.code (Bytes.get b (i lsr 3)) land (1 lsl (i land 7)) <> 0

let bit_set b i =
  Bytes.set b (i lsr 3) (Char.chr (Char.code (Bytes.get b (i lsr 3)) lor (1 lsl (i land 7))))

let nested () = invalid_arg "Path_search: nested search on one searcher"

(* ------------------------------------------------------------------ *)
(* Arbitrary paths: breadth-first search over graph × automaton.       *)
(* ------------------------------------------------------------------ *)

(* The product BFS from [node] in the automaton states [states],
   forward along successors or backward along predecessors.  Each
   discovered state is set in [seen] and appended to [s.queue] (the
   first [s.tail] entries).  A non-empty [parent] records [p * nl + ai]
   per state: the state [p] and label id [ai] that first reached it (-1
   for a start).  The search stops at the first state it dequeues whose
   node is [goal] and automaton state final, and returns it; else -1. *)
let bfs s ~backward seen ?(parent = [||]) ?(goal = -1) node states =
  let m = s.m and g = s.g and queue = s.queue in
  let record = Array.length parent > 0 in
  let push c from =
    if not (bit_get seen c) then begin
      bit_set seen c;
      Obs.Metrics.incr m_product_states;
      if record then parent.(c) <- from;
      queue.(s.tail) <- c;
      s.tail <- s.tail + 1
    end
  in
  (* the transitions [trans] out of state [c] at node [u] *)
  let rec expand c u = function
    | [] -> ()
    | (ai, q') :: trans ->
      let vs = if backward then Graph.pred_ids g u ai else Graph.succ_ids g u ai in
      let from = (c * s.nl) + ai in
      for i = 0 to Array.length vs - 1 do
        push ((vs.(i) * m) + q') from
      done;
      expand c u trans
  in
  s.tail <- 0;
  List.iter (fun q -> push ((node * m) + q) (-1)) states;
  let head = ref 0 and found = ref (-1) in
  while !found < 0 && !head < s.tail do
    Guard.checkpoint "path_search.product";
    let c = queue.(!head) in
    incr head;
    let u = c / m and q = c mod m in
    if u = goal && s.nfa.Nfa.finals.(q) then found := c
    else expand c u (if backward then s.rdelta.(q) else s.delta.(q))
  done;
  !found

let mark s k =
  s.marks.(k) <- true;
  s.path.(s.depth) <- k;
  s.depth <- s.depth + 1

let release s =
  s.depth <- s.depth - 1;
  s.marks.(s.path.(s.depth)) <- false

let unmark s =
  while s.depth > 0 do
    release s
  done

(* A forward BFS from [src]'s initial states; [k] reads its outcome.
   On every exit, the bits the BFS set and the marks [k] made are
   cleared. *)
let forward s ?parent ?goal src k =
  let forget () =
    for i = 0 to s.tail - 1 do
      Bytes.set s.seen (s.queue.(i) lsr 3) '\000'
    done;
    unmark s
  in
  Fun.protect ~finally:forget (fun () ->
      k (bfs s ~backward:false s.seen ?parent ?goal src s.nfa.Nfa.initials))

let reachable_with s ~src f =
  if s.depth > 0 then nested ();
  if src >= 0 && src < Graph.nnodes s.g then
    forward s src (fun _ ->
        (* each node at which some final state was discovered, once *)
        for i = 0 to s.tail - 1 do
          let c = s.queue.(i) in
          if s.nfa.Nfa.finals.(c mod s.m) && not s.marks.(c / s.m) then mark s (c / s.m)
        done;
        for i = 0 to s.depth - 1 do
          f s.path.(i)
        done)

let reachable g nfa src =
  let acc = ref [] in
  reachable_with (simple_searcher g nfa) ~src (fun v -> acc := v :: !acc);
  List.sort Int.compare !acc

let reach_relation g nfa =
  let n = Graph.nnodes g in
  let s = simple_searcher g nfa in
  let rel = Bitmatrix.create ~rows:n ~cols:n in
  for u = 0 to n - 1 do
    reachable_with s ~src:u (fun v -> Bitmatrix.set rel u v)
  done;
  rel

let exists_path g nfa ~src ~dst =
  src >= 0 && src < Graph.nnodes g
  && forward (simple_searcher g nfa) ~goal:dst src (fun c -> c >= 0)

let find_path g nfa ~src ~dst =
  let n = Graph.nnodes g in
  if src < 0 || src >= n then None
  else begin
    let s = simple_searcher g nfa in
    let parent = Array.make (max (n * s.m) 1) (-1) in
    let rec build c steps =
      let p = parent.(c) in
      if p < 0 then { Path.src = c / s.m; steps }
      else build (p / s.nl) ((Graph.label_name g (p mod s.nl), c / s.m) :: steps)
    in
    forward s ~parent ~goal:dst src (fun c -> if c < 0 then None else Some (build c []))
  end

(* Backward product reachability towards (dst, some final state): the
   simple-path search's pruning. *)
let co_reach s dst =
  match s.coreach.(dst) with
  | Some b -> b
  | None ->
    let seen = Bytes.make (((Graph.nnodes s.g * s.m) + 7) / 8) '\000' in
    ignore (bfs s ~backward:true seen dst (Nfa.final_states s.nfa));
    s.coreach.(dst) <- Some seen;
    seen

(* ------------------------------------------------------------------ *)
(* Simple paths and trails: one backtracking search.                   *)
(* ------------------------------------------------------------------ *)

(* What a path may not use twice: nodes (simple paths and cycles, whose
   internal nodes must also pass the test) or edges (trails, whose edges
   must pass it). *)
type reuse = Nodes of (node -> bool) | Edges of (Graph.edge -> bool)

let number_edges s =
  if Array.length s.eoff = 0 then begin
    let n = Graph.nnodes s.g in
    let eoff = Array.make (n + 1) 0 in
    for u = 0 to n - 1 do
      eoff.(u + 1) <- eoff.(u) + Graph.out_degree s.g u
    done;
    let size = max (Array.length s.marks) eoff.(n) in
    s.eoff <- eoff;
    s.marks <- Array.make size false;
    s.path <- Array.make size 0
  end

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

(* The search takes the edges of a node in [Graph.out]'s order (label,
   then successor, descending), which fixes the enumeration order and
   hence the first witness.  A simple path ends where it reaches [dst],
   and only extends through product states that co-reach [dst]; a trail
   may pass through [dst] and is not pruned. *)
let backtrack s reuse ~src ~dst f =
  let n = Graph.nnodes s.g in
  if s.depth > 0 then nested ();
  if src >= 0 && src < n && dst >= 0 && dst < n then begin
    let nfa = s.nfa and m = s.m in
    if src = dst && Nfa.accepts_eps nfa then f (Path.empty src);
    let trail = match reuse with Edges _ -> true | Nodes _ -> false in
    if trail then number_edges s;
    let coreach = if trail then Bytes.empty else co_reach s dst in
    let site = if trail then "path_search.trail" else "path_search.simple" in
    let live v states =
      trail || List.exists (fun q -> bit_get coreach ((v * m) + q)) states
    in
    let accepting states = List.exists (Nfa.is_final nfa) states in
    let report rev_steps = f { Path.src; steps = List.rev rev_steps } in
    let rec go u states rev_steps =
      Guard.checkpoint site;
      (* a trail's label [ai] edges out of [u] have the ids [!e .. !e + len - 1] *)
      let e = ref (if trail then s.eoff.(u + 1) else 0) in
      for ai = s.nl - 1 downto 0 do
        let succs = Graph.succ_ids s.g u ai in
        let len = Array.length succs in
        e := !e - len;
        if len > 0 then begin
          let states' = step s states ai in
          if states' <> [] then begin
            let a = Graph.label_name s.g ai in
            for i = len - 1 downto 0 do
              let v = succs.(i) in
              match reuse with
              | Nodes avoid ->
                if v = dst then begin
                  if accepting states' then report ((a, v) :: rev_steps)
                end
                else if (not s.marks.(v)) && (not (avoid v)) && live v states' then
                  extend v v states' ((a, v) :: rev_steps)
              | Edges avoid ->
                let k = !e + i in
                if (not s.marks.(k)) && not (avoid (u, a, v)) then begin
                  let steps = (a, v) :: rev_steps in
                  if v = dst && accepting states' then report steps;
                  extend k v states' steps
                end
            done
          end
        end
      done
    and extend k v states steps =
      mark s k;
      Guard.descend site (fun () -> go v states steps);
      release s;
      Obs.Metrics.incr (if trail then m_trail_backtracks else m_simple_backtracks)
    in
    (* a source none of whose initial product states reaches the
       destination has no accepted simple path to it *)
    if live src nfa.Nfa.initials then begin
      if not trail then mark s src;
      match go src nfa.Nfa.initials [] with
      | () -> unmark s
      | exception e ->
        unmark s;
        raise e
    end
  end

let first s reuse ~src ~dst =
  let result = ref None in
  (try
     backtrack s reuse ~src ~dst (fun p ->
         result := Some p;
         raise Found)
   with Found -> ());
  !result

let iter_simple_with ?(avoid_internal = fun _ -> false) s ~src ~dst f =
  backtrack s (Nodes avoid_internal) ~src ~dst f

let find_simple_with ?(avoid_internal = fun _ -> false) s ~src ~dst =
  first s (Nodes avoid_internal) ~src ~dst

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

let iter_trail ?(avoid_edge = fun _ -> false) g nfa ~src ~dst f =
  backtrack (simple_searcher g nfa) (Edges avoid_edge) ~src ~dst f

let find_trail_with ?(avoid_edge = fun _ -> false) s ~src ~dst =
  first s (Edges avoid_edge) ~src ~dst

let find_trail ?avoid_edge g nfa ~src ~dst =
  find_trail_with ?avoid_edge (simple_searcher g nfa) ~src ~dst

let exists_trail ?avoid_edge g nfa ~src ~dst =
  find_trail ?avoid_edge g nfa ~src ~dst <> None
