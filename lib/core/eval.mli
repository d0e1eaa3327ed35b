(** The evaluation problem (Section 3): is {m \bar v \in Q(G)^\star}?

    Direct evaluators:

    - standard semantics: one reachability relation per atom computed by
      BFS over the product of the graph with the atom's NFA, then a
      backtracking join — polynomial per candidate assignment, matching
      the NL/NP-completeness landscape;
    - atom-injective: same join over per-atom simple-path relations
      (each relation entry is an NP witness search, made when the join
      first probes it, by one simple-path searcher per atom);
    - query-injective: global backtracking that assigns variables
      injectively and threads pairwise internally-disjoint simple paths;
    - the two trail semantics (Section 7) replace node- by
      edge-disjointness: per-atom trail relations under atom-edge-injective,
      and under query-edge-injective the same threading search as
      query-injective, with unconstrained variables and edge-disjoint
      trails.

    The expansion-based evaluators implement Propositions 2.2 / 2.3
    literally and serve as independent oracles in the test suite. *)

(** [check sem q g tuple] decides {m \bar v \in Q(G)^\star}.  A tuple
    naming a node outside [0 .. nnodes g - 1] is in no answer: the result
    is [false].
    @raise Invalid_argument if the tuple arity differs from the number of
    free variables. *)
val check : Semantics.t -> Crpq.t -> Graph.t -> Graph.node list -> bool

(** {2 One query, many graphs}

    A containment search evaluates the same right query on every
    candidate expansion.  [prepare] does the graph-independent part
    once: the pre-pass (see {!set_preprocessor}), the
    {m \varepsilon}-free disjuncts, each disjunct's variable index and
    its atoms' automata. *)

type prepared

val prepare : Semantics.t -> Crpq.t -> prepared

(** [check_prepared (prepare sem q) g tuple] is [check sem q g tuple];
    {!check} is defined that way. *)
val check_prepared : prepared -> Graph.t -> Graph.node list -> bool

(** All answer tuples (deduplicated, sorted). *)
val eval : Semantics.t -> Crpq.t -> Graph.t -> Graph.node list list

(** Boolean evaluation: is the answer set non-empty?  (For a Boolean
    query this is [check sem q g []].) *)
val eval_bool : Semantics.t -> Crpq.t -> Graph.t -> bool

(** Install the query pre-pass applied by {!check}, {!eval},
    {!eval_bool} and {!Containment.decide} (to both sides) before they
    run (identity by default); the analysis layer hooks its certified
    optimizer in here.  The pre-pass must preserve the free-variable
    tuple, or {!check}'s arity contract breaks, and installers must
    guard against re-entry: a pre-pass that itself calls
    {!Containment.decide} would otherwise recurse forever.  The
    expansion-based reference evaluators below are {e not} preprocessed
    — they stay independent oracles. *)
val set_preprocessor : (Semantics.t -> Crpq.t -> Crpq.t) -> unit

(** [preprocess sem q] applies the installed pre-pass. *)
val preprocess : Semantics.t -> Crpq.t -> Crpq.t

(** {1 Expansion-based reference semantics (Props 2.2, 2.3 and their
    edge-injective analogues)}

    Exponential, meant for small instances and cross-validation. *)

(** [check_via_expansions sem q g tuple] tries the expansions of [q]
    whose words label walks of [g] and are no longer than [sem] needs
    (per atom {m n \cdot |A|} under St, {m n} under the node-injective
    semantics, {m |E|} under the trail ones), one profile at a time, and
    stops at the first that maps to [(g, tuple)].  Where the tuple fixes
    an atom's source (target), the atom's words must label a walk from
    (to) that node. *)
val check_via_expansions :
  Semantics.t -> Crpq.t -> Graph.t -> Graph.node list -> bool

(** [hom_from_expansion sem e g tuple] decides whether the expansion [e]
    maps to [(G, tuple)] via a homomorphism of the kind matching [sem]:
    arbitrary (St), injective (Q_inj), atom-injective (A_inj),
    per-atom edge-injective (A_edge_inj) or globally edge-injective
    (Q_edge_inj). *)
val hom_from_expansion :
  Semantics.t -> Expansion.expanded -> Graph.t -> Graph.node list -> bool
