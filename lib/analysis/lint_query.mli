(** Static-analysis passes over CRPQs.

    The paper's central phenomenon is that innocuous-looking CRPQs
    change meaning — or lose all answers — under the injective
    semantics (Example 2.1), and that redundant atoms are detectable
    statically (the minimization companion paper).  These passes
    certify a query {e before} the PSPACE-or-worse deciders run.

    Codes emitted here:

    - [E001] empty-atom-language: some atom denotes {m \emptyset}, so
      the query is unsatisfiable under every semantics.
    - [W002] eps-only-atom: some atom denotes exactly
      {m \{\varepsilon\}}; it silently collapses its endpoints, and the
      collapse interacts differently with st / a-inj / q-inj.
    - [W003] duplicate-atom: a syntactically repeated atom.  Warning
      under st and a-inj (idempotent — dead weight); info under q-inj
      and q-edge-inj, where the duplicate demands two internally
      disjoint paths and is load-bearing.
    - [W004] disconnected-variable: a variable with no atom path to any
      free variable (its component contributes a cartesian product).
    - [W005] unused-free-variable: a free variable occurring in no
      atom; it ranges over the whole node set.
    - [I006] redundant-atom: dropping the atom is
      containment-certified ({!Rewrite.drop_certified}, the optimizer's
      drop-atom certificate) to preserve the query under the given
      semantics; reported as a suggestion, never applied.
    - [W104] empty-candidate-domain: against a supplied example graph,
      some variable's candidate domain — the nodes surviving every
      per-atom product-reachability constraint, exactly as the
      {!Morphism} solver seeds its domains — is provably empty. *)

val empty_atoms : Crpq.t -> Diagnostic.t list

val eps_only_atoms : Crpq.t -> Diagnostic.t list

(** Severity depends on [sem]: warning under [St] / [A_inj] /
    [A_edge_inj], info under [Q_inj] / [Q_edge_inj]. *)
val duplicate_atoms : sem:Semantics.t -> Crpq.t -> Diagnostic.t list

(** [reachable_from q seeds] is the set of variables reachable from
    [seeds] in the undirected atom graph of [q] (languages ignored),
    seeds included. *)
val reachable_from : Crpq.t -> Crpq.var list -> (Crpq.var, unit) Hashtbl.t

val disconnected_vars : Crpq.t -> Diagnostic.t list

val unused_free_vars : Crpq.t -> Diagnostic.t list

(** [empty_domain_atoms ~graph q] flags, per variable (located at the
    first atom mentioning it), candidate domains that are provably
    empty against the example [graph].  One product BFS per atom.
    Sound: a flagged query has no answers on [graph] under any
    semantics. *)
val empty_domain_atoms : graph:Graph.t -> Crpq.t -> Diagnostic.t list

(** [redundant_atoms ~sem ~bound q] flags every atom whose removal is
    {!Rewrite.drop_certified} under [sem].  Quadratic in the number of
    atoms times a containment call; skipped internally when the query
    has an empty-language atom (everything would be flagged).  [bound]
    is the containment search bound (default 4).  Semantics the
    deciders refuse (the edge variants) certify nothing, so flag
    nothing. *)
val redundant_atoms : ?bound:int -> sem:Semantics.t -> Crpq.t -> Diagnostic.t list
