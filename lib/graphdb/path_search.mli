(** Path queries over graph databases.

    Three path regimes, matching the three RPQ semantics of the paper:

    - arbitrary paths (standard semantics): decidable in polynomial time
      by BFS over the product of the graph with the NFA;
    - simple paths / simple cycles (simple-path semantics, the basis of
      both injective semantics): NP-complete in general
      (Mendelzon–Wood), implemented as pruned backtracking over the
      product;
    - trails (edge-injective semantics, Section 7).

    Conventions for source = target: the empty path counts iff the
    automaton accepts {m \varepsilon}; otherwise a simple cycle (resp.
    non-empty trail) is required. *)

type node = Graph.node

(** [intern_delta g nfa].(q) lists [(ai, q')] for each transition
    {m q \xrightarrow{a} q'} whose label [a] has graph label id [ai];
    transitions on labels [g] never uses can't fire and are dropped. *)
val intern_delta : Graph.t -> Nfa.t -> (int * int) list array

(** {1 Arbitrary paths (standard semantics)} *)

(** [product_bfs g nfa srcs]: BFS over the product of the graph with the
    NFA from the given (node, state) pairs.  The result is the seen
    array over product states coded [u * nstates + q] (start pairs
    included). *)
val product_bfs : Graph.t -> Nfa.t -> (node * int) list -> bool array

(** Nodes reachable from [src] by a path whose label is accepted
    ([[]] when [src] is not a node of the graph). *)
val reachable : Graph.t -> Nfa.t -> node -> node list

(** [reach_relation g nfa].(u).(v) iff some path from [u] to [v] has an
    accepted label. *)
val reach_relation : Graph.t -> Nfa.t -> bool array array

val exists_path : Graph.t -> Nfa.t -> src:node -> dst:node -> bool

val find_path : Graph.t -> Nfa.t -> src:node -> dst:node -> Path.t option

(** {1 Simple paths and simple cycles} *)

(** Iterate over all simple paths from [src] to [dst] (simple cycles when
    [src = dst]) whose label is accepted.  Internal nodes satisfying
    [avoid_internal] are never used. *)
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

(** {2 One searcher for many searches}

    [iter_simple], [find_simple] and [exists_simple] build a fresh
    searcher per call.  A searcher holds the automaton's transitions
    interned by graph label id and, filled on first use, one backward
    co-reachability table per destination (one product BFS each), so
    searches that share a graph and an automaton share that work; a
    source none of whose initial product states reaches the destination
    is answered without a DFS.  A searcher runs one search at a time:
    its scratch state is restored on every exit, including exceptions
    raised by the callback and guard trips, but a callback may not start
    a search on the same searcher ([Invalid_argument]). *)

type simple_searcher

val simple_searcher : Graph.t -> Nfa.t -> simple_searcher

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

(** {1 Trails} *)

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
