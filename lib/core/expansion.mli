(** Expansions of CRPQs (Section 2.2) and atom-injective expansions
    (Section 4.1).

    An expansion profile picks one word from each atom's language; the
    expansion is the CQ obtained by expanding each atom into a path of
    fresh variables ({m \varepsilon} becomes an equality atom) and
    collapsing equalities.  [Exp(Q)] is the set of all expansions.

    An a-inj-expansion additionally identifies some pairs of variables
    that are not φ-atom-related (the merges [J] of Section 4.1);
    [Exp^a-inj(Q)] is the space of counterexample candidates for
    atom-injective containment (Prop 4.6). *)

type profile = Word.t array
(** one word per atom, in the order of [q.atoms] *)

(** [internal_var i j] is the name of the fresh variable reached after
    [j] letters of the expansion of atom number [i] (for
    [0 < j < length w]); exposed so that reductions can address specific
    expansion positions when building merges. *)
val internal_var : int -> int -> Cq.var

type expanded = {
  source : Crpq.t;
  profile : profile;
  cq : Cq.t;  (** the expansion {m E} (collapsed) *)
  atom_related : (Cq.var * Cq.var) list;
      (** pairs of distinct φ-atom-related variables of [cq] *)
  atom_edges : (Cq.var * Word.symbol * Cq.var) list list;
      (** per source atom: the edges of its expansion path in [cq]
          (used for the edge-injective semantics of Section 7) *)
}

(** [expand q p] computes the expansion of [q] under profile [p].
    @raise Invalid_argument if the profile length differs from the number
    of atoms or some word is not in the atom's language. *)
val expand : Crpq.t -> profile -> expanded

(** Same, without the membership check (for generated words). *)
val expand_unchecked : Crpq.t -> profile -> expanded

(** All profiles whose words have length at most [max_len]. *)
val profiles : max_len:int -> Crpq.t -> profile list

(** All expansions with per-atom words of length at most [max_len]. *)
val expansions : max_len:int -> Crpq.t -> expanded list

(** The complete, finite set [Exp(Q)] for a CRPQ{^ fin} query.
    @raise Invalid_argument on queries with infinite languages. *)
val finite_expansions : Crpq.t -> expanded list

(** All a-inj merges of an expansion: every partition of the variables
    that keeps atom-related pairs apart, the trivial partition included.
    The result enumerates {m (E \wedge J)^\equiv} for all valid [J]. *)
val merges : expanded -> expanded list

(** [merge e eqs] applies one specific set of equality atoms [J]
    (used by the reductions to build targeted a-inj-expansions).
    @raise Invalid_argument if a φ-atom-related pair would collapse. *)
val merge : expanded -> (Cq.var * Cq.var) list -> expanded

(** Bounded enumeration of [Exp^a-inj(Q)]. *)
val ainj_expansions : max_len:int -> Crpq.t -> expanded list

(** Complete [Exp^a-inj(Q)] for CRPQ{^ fin}. *)
val finite_ainj_expansions : Crpq.t -> expanded list

(** The expansion seen as a graph database with its free-node tuple. *)
val to_graph : expanded -> Graph.t * Graph.node list

(** {1 a-inj candidates as graphs}

    The containment search only evaluates the right query on each
    a-inj expansion's graph, and needs the named expansion for a
    counterexample alone. *)

type candidate

(** [ainj_candidates q] is [finite_ainj_expansions q], and
    [ainj_candidates ~max_len q] is [ainj_expansions ~max_len q], seen
    as graphs: the same merges in the same order, each built as the
    quotient of its base expansion's graph by the merge's partition of
    the nodes, without collapsing a named CQ.  Same guard checkpoints.
    @raise Invalid_argument without [max_len] on queries with infinite
    languages. *)
val ainj_candidates : ?max_len:int -> Crpq.t -> candidate list

(** The candidate's graph and free tuple: {!to_graph} of
    {!candidate_expansion}. *)
val candidate_graph : candidate -> Graph.t * Graph.node list

(** The a-inj expansion the candidate stands for. *)
val candidate_expansion : candidate -> expanded

val pp : Format.formatter -> expanded -> unit
