(** Graph databases: finite edge-labeled directed graphs {m G = (V, E)}
    over a finite alphabet, the data model of the paper (Section 2).

    Nodes are integers [0 .. nnodes-1].  Edges are triples
    {m u \xrightarrow{a} v}; the edge set is a set (no duplicates). *)

type node = int

type edge = node * Word.symbol * node

type t

(** [make ~nnodes edges] builds a graph with nodes [0..nnodes-1].
    Duplicate edges are removed.
    @raise Invalid_argument if an edge mentions a node out of range. *)
val make : nnodes:int -> edge list -> t

(** [of_edges edges] uses [1 + max node] as the node count. *)
val of_edges : edge list -> t

val empty : t

(** Process-unique identity assigned at construction.  Structurally
    equal graphs built separately have distinct uids; use it to key
    caches of derived structures (e.g. per-label adjacency matrices)
    without hashing the edge list. *)
val uid : t -> int

val nnodes : t -> int

(** Number of (distinct) edges; stored at construction, O(1). *)
val nedges : t -> int

val nodes : t -> node list

(** [iter_nodes g f] applies [f] to [0 .. nnodes-1] without allocating
    the node list. *)
val iter_nodes : t -> (node -> unit) -> unit

val edges : t -> edge list

(** A binary search of the label among the graph's labels, then
    {!mem_edge_id}; [false] on a node out of range or a label no edge
    carries. *)
val mem_edge : t -> node -> Word.symbol -> node -> bool

(** {2 Interned labels}

    Edge labels are interned to dense ids [0 .. nlabels-1] (in sorted
    symbol order) when the graph is built.  The morphism solver and the
    product searches run entirely on these ids: successor/predecessor
    sets are pre-indexed arrays and edge membership is a binary search
    of one of them. *)

val nlabels : t -> int

(** The id of a symbol in this graph, or [None] when no edge carries
    it; a binary search of the sorted labels. *)
val label_id : t -> Word.symbol -> int option

(** Inverse of {!label_id}.
    @raise Invalid_argument on an out-of-range id. *)
val label_name : t -> int -> Word.symbol

(** [succ_ids g u a] is the (sorted, shared — do not mutate) array of
    successors of [u] on label id [a].  [a] must come from {!label_id}
    on the same graph. *)
val succ_ids : t -> node -> int -> node array

(** Predecessors of [v] on label id [a]; same contract as
    {!succ_ids}. *)
val pred_ids : t -> node -> int -> node array

(** [mem_edge_id g u a v]: edge membership on an interned label id, a
    binary search of the ascending [succ_ids g u a], so O(log d) for
    [d] successors.  [false] when [u], [v] or [a] is out of range. *)
val mem_edge_id : t -> node -> int -> node -> bool

(** Outgoing [(label, successor)] pairs. *)
val out : t -> node -> (Word.symbol * node) list

(** Incoming [(label, predecessor)] pairs. *)
val in_ : t -> node -> (Word.symbol * node) list

val out_degree : t -> node -> int

val in_degree : t -> node -> int

(** Successors of a node on a given label. *)
val succ : t -> node -> Word.symbol -> node list

val alphabet : t -> Word.symbol list

(** [add_edges g edges] returns a graph extended with the given edges
    (growing the node count if needed). *)
val add_edges : t -> edge list -> t

(** [disjoint_union g h] shifts the nodes of [h] by [nnodes g]; returns
    the union and the shift. *)
val disjoint_union : t -> t -> t * int

(** Subgraph induced by the nodes satisfying the predicate, with nodes
    renumbered; returns the graph and the old-to-new node mapping
    ([-1] when dropped). *)
val induced : t -> (node -> bool) -> t * int array

(** Undirected connectivity of the underlying graph. *)
val is_connected : t -> bool

(** Weakly-connected components as node lists. *)
val components : t -> node list list

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit

(** GraphViz dot output. *)
val to_dot : ?name:string -> t -> string
