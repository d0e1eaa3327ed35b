(** Path queries over graph databases.

    Three path regimes, matching the three RPQ semantics of the paper:

    - arbitrary paths (standard semantics): decidable in polynomial time
      by BFS over the product of the graph with the NFA;
    - simple paths / simple cycles (simple-path semantics, the basis of
      both injective semantics): NP-complete in general
      (Mendelzon–Wood), implemented as backtracking over the product,
      pruned to product states that co-reach the destination;
    - trails (edge-injective semantics, Section 7): the same
      backtracking with edges in place of nodes, unpruned.

    One searcher per (graph, automaton) serves all three.  It holds the
    transitions interned by graph label id, both ways, and runs one
    product BFS — forward along successors, backward along predecessors
    for one co-reachability table per destination, filled on first use
    — and one backtracking search over nodes or edges.  The functions
    taking a graph and an automaton build a fresh searcher per call;
    the [_with] variants reuse one.  A searcher runs one search at a
    time: its scratch state is restored on every exit, including
    exceptions raised by the callback and guard trips, but a callback
    may not start a search on the same searcher ([Invalid_argument]).

    Conventions for source = target: the empty path counts iff the
    automaton accepts {m \varepsilon}; otherwise a simple cycle (resp.
    non-empty trail) is required. *)

type node = Graph.node

(** [intern_delta g nfa].(q) lists [(ai, q')] for each transition
    {m q \xrightarrow{a} q'} whose label [a] has graph label id [ai];
    transitions on labels [g] never uses can't fire and are dropped. *)
val intern_delta : Graph.t -> Nfa.t -> (int * int) list array

type simple_searcher

val simple_searcher : Graph.t -> Nfa.t -> simple_searcher

(** {1 Arbitrary paths (standard semantics)} *)

(** Nodes reachable from [src] by a path whose label is accepted, in
    ascending order ([[]] when [src] is not a node of the graph). *)
val reachable : Graph.t -> Nfa.t -> node -> node list

(** [reachable_with s ~src f] calls [f] once per node of {!reachable},
    in the order the BFS discovered them.  The search clears only the
    product states it visited, so one searcher answers every source for
    O(n·m) words in all. *)
val reachable_with : simple_searcher -> src:node -> (node -> unit) -> unit

(** [reach_relation g nfa].(u).(v) iff some path from [u] to [v] has an
    accepted label ({!reachable_with} from every source). *)
val reach_relation : Graph.t -> Nfa.t -> bool array array

(** A BFS that stops at the first accepted product state at [dst]. *)
val exists_path : Graph.t -> Nfa.t -> src:node -> dst:node -> bool

(** A shortest accepted path, from the BFS's parent links. *)
val find_path : Graph.t -> Nfa.t -> src:node -> dst:node -> Path.t option

(** {1 Simple paths and simple cycles} *)

(** Iterate over all simple paths from [src] to [dst] (simple cycles when
    [src = dst]) whose label is accepted.  Internal nodes satisfying
    [avoid_internal] are never used.  The search takes a node's edges in
    {!Graph.out}'s order (label, then successor, both descending), which
    fixes the enumeration order. *)
val iter_simple :
  ?avoid_internal:(node -> bool) ->
  Graph.t ->
  Nfa.t ->
  src:node ->
  dst:node ->
  (Path.t -> unit) ->
  unit

val find_simple :
  ?avoid_internal:(node -> bool) ->
  Graph.t ->
  Nfa.t ->
  src:node ->
  dst:node ->
  Path.t option

val exists_simple :
  ?avoid_internal:(node -> bool) ->
  Graph.t ->
  Nfa.t ->
  src:node ->
  dst:node ->
  bool

(** {!iter_simple} on a searcher. *)
val iter_simple_with :
  ?avoid_internal:(node -> bool) ->
  simple_searcher ->
  src:node ->
  dst:node ->
  (Path.t -> unit) ->
  unit

(** {!find_simple} on a searcher. *)
val find_simple_with :
  ?avoid_internal:(node -> bool) ->
  simple_searcher ->
  src:node ->
  dst:node ->
  Path.t option

(** All accepted simple paths (naive enumeration; for tests/oracles). *)
val all_simple : Graph.t -> Nfa.t -> src:node -> dst:node -> Path.t list

(** [simple_reach_relation g nfa].(u).(v) iff an accepted simple path
    (simple cycle when [u = v]) links [u] to [v].  One searcher answers
    all n² pairs, so the co-reachability work is one product BFS per
    destination. *)
val simple_reach_relation : Graph.t -> Nfa.t -> bool array array

(** {1 Trails}

    Edges satisfying [avoid_edge] are never used.  The enumeration order
    is {!iter_simple}'s. *)

val iter_trail :
  ?avoid_edge:(Graph.edge -> bool) ->
  Graph.t ->
  Nfa.t ->
  src:node ->
  dst:node ->
  (Path.t -> unit) ->
  unit

val find_trail :
  ?avoid_edge:(Graph.edge -> bool) ->
  Graph.t ->
  Nfa.t ->
  src:node ->
  dst:node ->
  Path.t option

val exists_trail :
  ?avoid_edge:(Graph.edge -> bool) ->
  Graph.t ->
  Nfa.t ->
  src:node ->
  dst:node ->
  bool

(** {!find_trail} on a searcher. *)
val find_trail_with :
  ?avoid_edge:(Graph.edge -> bool) ->
  simple_searcher ->
  src:node ->
  dst:node ->
  Path.t option
