(** Exact CRPQ/CRPQ containment under query-injective semantics: the
    abstraction algorithm of Theorem 5.1 (Appendix C).

    The procedure decides {m Q_1 \subseteq_{q\text{-}inj} Q_2}:

    + both queries are rewritten into unions of {m \varepsilon}-free
      CRPQs, the right-hand queries are normalized by concatenating away
      non-free degree-(1,1) variables (Remark C.1), and parallel atoms
      sharing single-letter words are split into unions (Remark C.2);
    + the automaton {m \mathcal A_{Q_2}} is the disjoint union of the NFAs
      of the right-hand atoms, made complete and co-complete;
    + for every distinct language {m L} of a left atom, an incremental
      tracker explores the words of {m L} and computes the achievable
      {e abstraction values}: the four relations
      {m \langle q\text- q'\rangle}, {m \langle q + q'\rangle},
      {m \langle q\,|\!\cdot\!\cdot|\, q'\rangle},
      {m \langle \cdot\!\cdot q\text- q'\cdot\!\cdot\rangle} of Appendix
      C, together with a witness word per value.  A value depends only
      on {m \mathcal A_{Q_2}} and {m L}, so the tracker runs once per
      language per decision, for all left atoms and left disjuncts.
      Every tracker step is monotone in the dominance order on tracker
      states: {m s \le s'} when the relation and preffinal bits of
      {m s} are {m \subseteq} those of {m s'}, the reached states of
      the atom's NFA are {m \supseteq}, and the nonempty flags are
      equal.  By every word, {m s} then accepts whenever {m s'} does,
      with a value {m \subseteq} that of {m s'}.  The tracker drops
      each successor that a known state is below (forward subsumption,
      as in antichain algorithms), which keeps every {m \subseteq}-minimal
      value with the witness and the position it has without the
      pruning.  Only {!decide_full_search} runs the exhaustive
      tracker;
    + {e morphism types} {m (H,h)} are the injective placements of the
      right query into the graph {m G} that triples every left atom
      (Figure 8).  They are enumerated on demand, as a lazy sequence
      over persistent placement state;
    + each type yields per-left-atom membership {e templates} (the 17
      compatibility cases of Figure 9, derived from edge coverage), and
      compatibility is a search over the {m \lambda} state labelling.
      Types are analyzed as they come out of the enumeration and kept;
      an abstraction is checked against the kept types in enumeration
      order, and the enumeration advances only while none of them is
      compatible;
    + {m Q_1 \not\subseteq Q_2} iff some abstraction (a product of
      achievable values) admits no compatible morphism type; the witness
      words then produce a concrete counterexample expansion, which is
      re-verified by direct evaluation before being returned
      ({!certify_union} stops at the abstraction);
    + compatibility only asks that relation rows meet the required
      states, so it is monotone in the bits of a value: if a type is
      compatible with an abstraction, it stays compatible when any value
      grows (under ⊆ on each of the four relations).  Every achievable
      value contains a ⊆-minimal achievable one, so some abstraction
      admits no compatible type iff some abstraction of minimal values
      does.  Each left disjunct is therefore searched over the product
      of the minimal values only, and the witness words of the first
      refuting abstraction there give the counterexample.  The morphism
      types pulled are those the full product's search pulls: the first
      type compatible with an abstraction comes no later than the first
      compatible with a minimal abstraction below it.

    Representation: a relation over the {m n} states of
    {m \mathcal A_{Q_2}} is {m n} packed bit rows of
    {m \lceil n/63 \rceil} native ints (on 64-bit platforms).  Per letter
    {m a}, the decider builds once {m \Delta_a} as rows and the image of
    the initial states, and keeps a table of unions of {m \Delta_a} rows
    per 9-bit chunk, each entry filled on first use (so
    {m r \circ \Delta_a} is one row OR per nonzero chunk of {m r}); per
    right atom, masks of its initial and final states.  The
    tracker keeps its states as runs of words in one arena, in discovery
    order, with an open-addressing index over them.  The arena, its
    parent links and the index start with room for one state and double
    as needed.  A state holds the reached states of the atom's NFA as a
    bit row, stepped by per-letter transition rows built once per
    tracker run.  The letters are taken in alphabet order, so the
    achievable values of an atom come in breadth-first order and each
    witness word is the shortlex-least word for its value.

    The abstraction spaces are exponential in the query sizes (the
    algorithm is PSPACE; this implementation materializes the guessed
    objects), so the deciders take explosion caps and raise
    {!Unsupported} when exceeded: 60,000 tracker states per language,
    50,000 morphism types and 400,000 abstractions per decision.  The caps
    count work actually done: tracker states explored, morphism types
    pulled from the enumeration and abstractions checked, and so do the [stats] fields and the [qinj.*]
    counters. *)

exception Unsupported of string

type result =
  | Qinj_contained
  | Qinj_not_contained of Expansion.expanded
      (** counterexample expansion of {m Q_1}, verified *)

val decide : Crpq.t -> Crpq.t -> result

(** {1 Introspection} (for tests and benchmarks) *)

type stats = {
  lhs_disjuncts : int;
  rhs_disjuncts : int;
  abstractions_checked : int;
  morphism_types : int;  (** types the search pulled from the enumeration *)
  aq2_states : int;  (** states of the completed {m \mathcal A_{Q_2}}; 0 without right atoms *)
}

(** Same as {!decide} but also reports search-space sizes. *)
val decide_with_stats : Crpq.t -> Crpq.t -> result * stats

(** Containment between unions of CRPQs:
    {m \bigvee_i P_i \subseteq_{q\text{-}inj} \bigvee_j R_j}.  The
    machinery handles unions natively (counterexamples must defeat every
    right disjunct; every left disjunct must be covered). *)
val decide_union : Crpq.t list -> Crpq.t list -> result

(** [certify_union lhs rhs] is [true] exactly when {!decide_union}
    answers [Qinj_contained], but it stops at the first abstraction of
    minimal values with no compatible morphism type, without building
    {!decide_union}'s witness or re-verifying it.  A left disjunct without atoms,
    or a right union without satisfiable atoms, is still settled by
    evaluating an expansion, since there evaluation is the decision.
    @raise Unsupported as {!decide_union} does. *)
val certify_union : Crpq.t list -> Crpq.t list -> bool

(** Same as {!decide_with_stats}, but the tracker explores every
    state, and every abstraction search runs over the full product of
    achievable values instead of the minimal ones.  A reference for
    tests: it reaches the same verdict
    and pulls the same morphism types; its witness, from the first
    refuting abstraction of the full product, may differ from
    {!decide_with_stats}'s. *)
val decide_full_search : Crpq.t -> Crpq.t -> result * stats

(** [tracker_values ~prune q1 q2] runs the tracker on each distinct
    atom language of the rewritten [q1], against the
    {m \mathcal A_{Q_2}} of [q2].  Each language comes with its
    achievable values, in discovery order.  A value is its four packed
    relations and its witness word.  [~prune:false] is the exhaustive
    tracker, which only {!decide_full_search} runs.  [~prune:true] is
    the pruned tracker of every other search.  It may miss values that
    are not ⊆-minimal, but it finds every minimal one, with the same
    witness and in the same order.  A reference for tests. *)
val tracker_values :
  prune:bool -> Crpq.t -> Crpq.t -> (Regex.t * (int array * Word.t) list) list

(** Normalization of Remark C.1: concatenate away non-free variables with
    in-degree 1 and out-degree 1 incident to two distinct atoms. *)
val normalize_concat : Crpq.t -> Crpq.t

(** Rewriting of Remark C.2 (ii): split a query into a union in which no
    two parallel atoms share a single-letter word. *)
val split_parallel_letters : Crpq.t -> Crpq.t list

(** [remove_letter_word l a] denotes {m L \setminus \{a\}} (on
    {m \varepsilon}-free [l]). *)
val remove_letter_word : Regex.t -> Word.symbol -> Regex.t
