(** Helpers for static optimization of CRPQs — the paper's motivating
    application of the containment problem (Section 1).  Equivalence is
    mutual containment, {!Ucrpq.equivalent}.  Dropping redundant atoms
    is the certified rewrite engine's job ([Rewrite] in the analysis
    layer): redundancy is semantics-dependent, and an atom implied under
    standard semantics can be load-bearing under an injective one (see
    [examples/query_optimizer.ml]). *)

(** [is_satisfiable q]: does the query have any expansion (i.e. any
    answer on some database)?  Independent of the semantics. *)
val is_satisfiable : Crpq.t -> bool

(** [prune_languages q] simplifies atom languages without changing the
    denoted language: removes unsatisfiable atoms' queries to the empty
    query marker and rewrites each regex to the minimal-DFA-derived
    equivalent when that is smaller. *)
val prune_languages : Crpq.t -> Crpq.t
