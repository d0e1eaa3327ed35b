(** The containment problem {m Q_1 \subseteq_\star Q_2} (Section 4).

    Deciders, by query class (Figure 1):

    - {b CQ/CQ}: exact for all three node semantics via homomorphism
      tests — plain (standard, Chandra–Merlin), injective
      (query-injective, Prop 4.3) and non-contracting (atom-injective,
      Lemma F.3).  NP-complete.
    - {b CRPQ{^ fin} left-hand side}: exact for all node semantics by
      enumerating the finite set of ★-expansions of {m Q_1} and testing
      {m \bar y \in Q_2(E_1)^\star} (Props 4.2, 4.3, 4.6; Prop F.10).
    - {b query-injective, unrestricted}: exact via the abstraction
      algorithm of Theorem 5.1 (see {!Containment_qinj}).
    - {b standard, right query a CQ}: exact via the window algorithm of
      Prop F.7 (see {!Containment_f7}), which declines instances past
      its enumeration caps.
    - {b everything else}: bounded counterexample search — sound and
      complete for NOT-CONTAINED up to the expansion-length bound.  For
      atom-injective CRPQ/CRPQ this is the theoretically best possible
      behaviour: the problem is undecidable (Theorem 5.2).  Under
      standard semantics the Theorem 5.1 certificate is asked first
      (both injective containments imply the standard one, §4.1): when
      it proves {m Q_1 \subseteq_{q\text{-}inj} Q_2} the answer is
      [Contained] with no expansion enumerated; otherwise the bounded
      search runs.  The same order applies where Prop F.7 declines.

    One dispatcher, {!decide_union}, chooses among them for unions of
    queries on either side ({!decide} is its singleton case); the CQ/CQ,
    RPQ-inclusion and Prop F.7 procedures apply only when each side is a
    single query.

    Only the three node semantics are supported; the containment theory
    for trail semantics is future work in the paper (Section 7). *)

type witness = {
  expansion : Expansion.expanded;
      (** a ★-expansion of {m Q_1} that is a counterexample *)
  tuple : Graph.node list;
      (** the free tuple of the expansion, not returned by {m Q_2} *)
}

(** How far a bounded search got before giving up. *)
type exhaustion = {
  bound_reached : int;  (** the per-atom word-length bound that was exhausted *)
  expansions_enumerated : int;
      (** ★-expansions enumerated (and refuted) within the bound *)
  notes : string list;
      (** extra context, e.g. which exact algorithm declined the instance *)
}

(** Why a decider returned {!Unknown}. *)
type reason =
  | Budget_exhausted of exhaustion
      (** bounded counterexample search ran out of budget *)
  | Undecided of string  (** no applicable procedure; free-form diagnosis *)
  | Resource_exhausted of Guard.trip
      (** a {!Guard} budget (deadline, fuel, depth, cancellation) stopped
          the search; the trip says which site and why *)

type verdict =
  | Contained  (** proof of containment *)
  | Not_contained of witness  (** counterexample found *)
  | Unknown of reason
      (** search exhausted or no procedure applies; see {!reason} *)

val budget_exhausted : bound:int -> expansions:int -> verdict
(** [Unknown (Budget_exhausted _)] with the given bound and search size. *)

val resource_exhausted : Guard.trip -> verdict
(** [Unknown (Resource_exhausted trip)]. *)

val with_note : string -> verdict -> verdict
(** Attach context to an [Unknown] verdict; other verdicts pass through. *)

val reason_to_string : reason -> string
(** Canonical rendering used by {!pp_verdict}. *)

val verdict_name : verdict -> string
(** ["contained"], ["not-contained"] or ["unknown"]: the verdict as the
    JSON outputs (CLI, serve, optimizer reports) name it. *)

val reason_to_json : reason -> Obs.Json.t
(** [{"kind", "detail"}]: [kind] is the {!Guard.reason_kind} of a
    resource trip, ["search-budget"] or ["undecided"]; [detail] is
    {!reason_to_string}. *)

val verdict_bool : verdict -> bool option
(** [Some true] / [Some false] for exact verdicts, [None] for unknown. *)

val pp_verdict : Format.formatter -> verdict -> unit

(** [is_counterexample sem q2 e] checks that the ★-expansion [e] (of the
    left query) defeats [q2]: {m \bar y \notin Q_2(E)^\star}. *)
val is_counterexample : Semantics.t -> Crpq.t -> Expansion.expanded -> bool

(** Exact CQ/CQ containment.
    @raise Invalid_argument on edge semantics or arity mismatch. *)
val cq_cq : Semantics.t -> Cq.t -> Cq.t -> bool

(** The ★-expansion search shared by every expansion-based decider:
    enumerate, one ε-free disjunct of each left query at a time, the
    ★-expansions of the left queries — all of them when [max_len] is [None] (every left query
    must be in CRPQ{^ fin}), else those with per-atom words of length at
    most [max_len] — and return the first that defeats {e every} right
    query.  Exhausting the space gives [Contained] for [None] and
    [Unknown (Budget_exhausted _)] otherwise.  Each right query is
    prepared once per search ({!Eval.prepare}), before the first
    expansion is checked; a-inj expansions are checked as graphs
    ({!Expansion.ainj_candidates}) and named only for the witness.  Each
    expansion passes the [containment.search] guard checkpoint.  No
    guard boundary of its own.
    @raise Invalid_argument on edge semantics. *)
val search :
  Semantics.t -> max_len:int option -> Crpq.t list -> Crpq.t list -> verdict

(** Exact containment when the left query is in CRPQ{^ fin}.  Under a
    guard the search can stop early with [Unknown (Resource_exhausted _)].
    @raise Invalid_argument if the left query is not finite. *)
val finite_lhs : ?guard:Guard.t -> Semantics.t -> Crpq.t -> Crpq.t -> verdict

(** Bounded counterexample search over ★-expansions of the left query
    with per-atom words of length at most [max_len]. *)
val bounded :
  ?guard:Guard.t -> Semantics.t -> max_len:int -> Crpq.t -> Crpq.t -> verdict

(** Dispatching decider; picks the best available procedure.  [bound]
    (default 4) controls the fallback bounded search.  [guard] (or an
    ambient {!Guard.with_guard}) bounds the whole decision: on a trip the
    result is [Unknown (Resource_exhausted _)] rather than an exception,
    so [decide] under a guard always returns.  Both queries first go
    through the installed pre-pass, {!Eval.preprocess}.  Same as
    [decide_union sem [q1] [q2]]. *)
val decide :
  ?bound:int -> ?guard:Guard.t -> Semantics.t -> Crpq.t -> Crpq.t -> verdict

(** [decide_union sem lhs rhs] decides whether the union of [lhs] is
    contained in the union of [rhs]
    ({m \bigvee_i P_i \subseteq \bigvee_j R_j}): a counterexample is a
    ★-expansion of some left query that defeats {e every} right query.
    The one dispatcher behind {!decide} and {!Ucrpq.contained}.  The
    CQ/CQ, RPQ-inclusion and Prop F.7 procedures need a single query on
    each side; the trivial check (every left query unsatisfiable),
    finite-expansion enumeration, the Theorem 5.1 algorithm (with the
    bounded search, and a note, where it declines) and the
    certificate-first bounded search take whole unions.  Every query
    goes through {!Eval.preprocess}; [bound] and [guard] are as for
    {!decide}.
    @raise Invalid_argument on edge semantics or mixed arities. *)
val decide_union :
  ?bound:int ->
  ?guard:Guard.t ->
  Semantics.t ->
  Crpq.t list ->
  Crpq.t list ->
  verdict

(** Name of the procedure {!decide} would use (for reporting).  Under
    standard semantics the bounded search is named after the Theorem 5.1
    certificate that runs first. *)
val strategy_name : Semantics.t -> Crpq.t -> Crpq.t -> string
