(** Bulk linear-algebra RPQ evaluation over {!Bitmatrix} / {!Csr}
    adjacency.

    Where {!Path_search} answers standard-semantics reachability with
    one product BFS per source, this engine answers an RPQ atom for
    {e all} sources at once with a multiple-source frontier BFS, one
    bitset row per (source, NFA state) pair.  It returns relations
    bit-identical to [Path_search.reach_relation].

    The frontier BFS is {e tiled} and {e hybrid}:

    - {b Tiling}: sources are processed in blocks of ≤ B rows, so peak
      memory is O(B·n) — three generations (visited/frontier/next) of
      one B×n matrix per NFA state — and 10⁶–10⁷-edge graphs evaluate
      without the full s×n allocation.  B defaults to the largest block
      whose tile fits ~64 MiB; tests and benches may pin it with
      {!set_block_rows}.
    - {b Hybrid sweeps}: each sweep runs either the dense row kernel
      (per-label n×n {!Bitmatrix} OR-gather) or a sparse frontier push
      ({!Csr} successor runs scattered into the next frontier via
      {!Bitmatrix.scatter_row}).  The choice is made per sweep from the
      measured frontier density (CSR degrees vs row width), sequentially
      on the immutable frontier snapshot, so results and counters stay
      domain-count- and strategy-independent; a frontier with no
      successor ends the search without a sweep.  Past {!dense_node_cap}
      nodes the dense matrices are never built.  Tests and benches may
      force a kernel with {!set_sweep}.

    Engine selection follows {!current_mode}: [Auto] (the default)
    switches to the bulk engine only past a size heuristic, so small
    inputs keep pointwise behavior; [Off] keeps every caller on
    [Path_search] and [On] forces the bulk engine — the two settings
    tests use to compare the engines.  Reference evaluators
    (expansion/morphism oracles) are never switched.

    Observability: sweeps pass the [bulk.sweep] guard checkpoint; the
    [bulk.sweeps], [bulk.frontier_bits], [bulk.words_anded],
    [bulk.sweep_sparse]/[bulk.sweep_dense], [bulk.bits_scattered] and
    [bulk.tiles] counters account sweep count, frontier growth and
    kernel work; [bulk.tile_rows]/[bulk.peak_tile_words] gauge the tile
    geometry; [bulk.dispatch.<caller>.<engine>] attributes every
    {!st_relation} dispatch to the layer that asked ({!with_caller}),
    [<engine>] being [pointwise] or [multi_source].
    Per-label adjacency (dense matrices and CSR) is memoized through
    {!Cache.Memo}, keyed by {!Graph.uid}. *)

type mode = Off | On | Auto

val mode_to_string : mode -> string

val current_mode : unit -> mode
(** [Auto] unless {!set_mode} changed it. *)

val set_mode : mode -> unit

(** {2 Sweep kernel selection} *)

type sweep = Sparse | Dense | Adaptive

val sweep_to_string : sweep -> string

val current_sweep : unit -> sweep
(** {!Adaptive} unless {!set_sweep} changed it. *)

val set_sweep : sweep -> unit
(** Forcing {!Dense} builds the dense label matrices whatever the graph
    size — {!dense_node_cap} only steers the adaptive choice. *)

val dense_node_cap : int
(** Above this node count the adaptive policy never builds the dense
    n×n label matrices (a single label matrix at the cap is ~32 MiB). *)

(** {2 Source-block tiling} *)

val block_rows : nstates:int -> nnodes:int -> int
(** The tile height B in effect for a given problem shape: the override
    if one is set, else the largest B whose three-generation tile
    ([3·nstates·B] rows of [nnodes] bits) fits the ~64 MiB budget.
    Deterministic in the problem dimensions and [Sys.int_size] only. *)

val current_block_rows : unit -> int option
(** The override set by {!set_block_rows}, if any. *)

val set_block_rows : int option -> unit
(** @raise Invalid_argument on a block height < 1. *)

val peak_tile_words : unit -> int
(** High-water mark of the tile working set (words) since the last
    {!reset_peak_tile_words} — the measured quantity behind the O(B·n)
    memory-bound assertion (also exported as the [bulk.peak_tile_words]
    gauge). *)

val reset_peak_tile_words : unit -> unit

(** {2 Engine selection} *)

(** Whether {!st_relation} would take the bulk path for this input
    under the current mode. *)
val use_bulk : Graph.t -> Nfa.t -> bool

(** {2 Caller attribution} *)

val with_caller : string -> (unit -> 'a) -> 'a
(** [with_caller name f] runs [f] with [name] as the ambient dispatch
    caller (domain-local; fan-out sites re-establish it inside Parmap
    workers).  Known callers — [eval], [containment], [rpq], [direct] —
    get their own [bulk.dispatch.<caller>.<engine>] counters; anything
    else lands in [bulk.dispatch.other.*]. *)

val current_caller : unit -> string option

(** {2 Kernels} *)

(** Per-label dense adjacency of [g]: [adjacency g].(a) is the
    [nnodes × nnodes] matrix of label id [a] (memoized per graph —
    shared, do not mutate).  Sparse adjacency lives in {!Csr}. *)
val adjacency : Graph.t -> Bitmatrix.t array

(** [reach_pairs g nfa srcs] runs the tiled hybrid multiple-source
    frontier BFS from [srcs]: row [i] of the result has bit [v] set iff
    [v] is reachable from [srcs.(i)] along a path accepted by [nfa].
    Dimensions [length srcs × nnodes g]; peak intermediate memory is
    O({!block_rows}·nnodes) however long [srcs] is. *)
val reach_pairs : Graph.t -> Nfa.t -> Graph.node array -> Bitmatrix.t

(** Drop-in replacement for [Path_search.reach_relation] (same
    dimensions, same bits, including the empty-path diagonal):
    {!reach_pairs} from every node. *)
val reach_relation : Graph.t -> Nfa.t -> bool array array

(** The Eval/Containment seam: bulk [reach_relation] when {!use_bulk}
    says so, [Path_search.reach_relation] otherwise.  Each call bumps
    the [bulk.dispatch.*] counter for the ambient caller and the engine
    actually used. *)
val st_relation : Graph.t -> Nfa.t -> bool array array
