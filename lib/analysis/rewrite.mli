(** Certificate-checked query rewriting.

    The lint layer {e reports} redundancy (W00x); this module {e acts}
    on it, under a proof obligation: a rewrite [q ~> q'] is applied
    only when both containments {m q \sqsubseteq_\star q'} and
    {m q' \sqsubseteq_\star q} are certified by the containment decider
    for the active semantics.  Anything the decider cannot prove
    ([Unknown], or a genuine counterexample) leaves the query alone, so
    the pass is sound by construction — including under the injective
    semantics, where standard CQ-style minimization is unsound:
    dropping one of two duplicate atoms is an equivalence under
    [St]/[A_inj] but {e not} under [Q_inj], where duplicate atoms
    demand internally disjoint paths.  There the certificate check
    (the Theorem 5.1 abstraction algorithm) refutes the rewrite and
    the duplicate is kept.

    Candidate kinds:

    - {b collapse-unsat}: some atom's language is empty, so the whole
      query is unsatisfiable; replace it by a canonical one-atom
      unsatisfiable query with the same free tuple.
    - {b merge-vars}: an atom {m x \xrightarrow{\{\varepsilon\}} y}
      forces {m x = y}; substitute one endpoint for the other
      (ε-elimination, Section 2.1 of the paper).  Skipped when both
      endpoints are free (the head tuple must keep its shape).
    - {b drop-atom}: remove one atom (semantic redundancy, as in
      "Minimizing Conjunctive Regular Path Queries").

    Every candidate check passes the [analysis.rewrite] guard
    checkpoint, so an ambient {!Guard} budgets the pass. *)

type candidate =
  | Collapse_unsat
  | Merge_vars of { kept : Crpq.var; dropped : Crpq.var }
      (** substitute [dropped := kept] and delete the ε-atoms joining
          them *)
  | Drop_atom of { index : int; atom : Crpq.atom }
      (** [index] into the sorted atom list *)

val candidate_to_string : candidate -> string

(** One direction of a certificate: [verdict] is the decider's answer
    to {m lhs \sqsubseteq_\star rhs}, and [wall_ns] what the oracle call
    cost (also observed into the [analysis.certificate_ns] histogram). *)
type check = {
  lhs : Crpq.t;
  rhs : Crpq.t;
  verdict : Containment.verdict;
  wall_ns : int64;
}

(** A candidate that was examined: its certificate checks (in order
    tried; empty when the candidate was structurally inapplicable),
    whether it was applied, and a human-readable note. *)
type step = {
  candidate : candidate;
  checks : check list;
  applied : bool;
  note : string;
}

type report = {
  steps : step list;
  before_atoms : int;
  after_atoms : int;
  before_vars : int;
  after_vars : int;
}

val removed_atoms : report -> int

(** A certificate oracle decides one containment direction.  Tests
    substitute logging / adversarial oracles; the default is
    {!Containment.decide} with the given bound. *)
type oracle = Semantics.t -> Crpq.t -> Crpq.t -> Containment.verdict

val default_oracle : ?bound:int -> unit -> oracle

(** Structural candidates for one round, cheapest first:
    collapse-unsat, then merges, then drops (only when the query has
    at least two atoms). *)
val candidates : Crpq.t -> candidate list

(** Apply a candidate structurally, {e without} checking certificates;
    [None] when it does not apply to this query.  Exposed for tests. *)
val apply_candidate : Crpq.t -> candidate -> Crpq.t option

(** [drop_certified ?oracle sem q i]: is dropping atom [i] (of the
    sorted atom list) both-direction certified under [sem]?  The
    certificate behind {!rewrite}'s drop-atom candidate; the lint pass
    reports it as I006.  [false] when [q] has fewer than two atoms or
    [i] is out of range.  The oracle defaults to {!default_oracle}. *)
val drop_certified : ?oracle:oracle -> Semantics.t -> Crpq.t -> int -> bool

(** Greedy fixpoint: each round re-enumerates candidates and applies
    the first whose both-direction certificate the oracle proves;
    stops when a round certifies nothing (those final rejected
    candidates are recorded in the report, [applied = false]). *)
val rewrite : ?oracle:oracle -> Semantics.t -> Crpq.t -> Crpq.t * report
