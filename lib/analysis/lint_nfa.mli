(** NFA hygiene: unreachable states, dead states, unproductive
    transitions.

    {!Nfa.of_regex} trims unreachable states but keeps states that
    cannot reach a final state; {!Nfa.complete} adds a dead sink and
    {!Nfa.co_complete} an unreachable source.  A dirty automaton is
    semantically fine but wastes work in every downstream product
    ({!Lang_ops} state elimination, path search, containment); these
    diagnostics report what {!Nfa.trim} would remove.

    Codes:

    - [W101] unreachable-state: no path from an initial state.
    - [W102] dead-state: reachable, but no path to a final state.
    - [W103] unproductive-transition: a transition into an unreachable
      or dead state; following it can never contribute an accepted
      word. *)

type report = {
  unreachable : Nfa.state list;
  dead : Nfa.state list;  (** reachable but not co-reachable *)
  unproductive : (Nfa.state * Word.symbol * Nfa.state) list;
}

val analyze : Nfa.t -> report

val is_clean : report -> bool

(** Per-state / per-transition diagnostics with [State] locations. *)
val diagnostics : Nfa.t -> Diagnostic.t list

(** One summary diagnostic per dirty atom NFA of a query, with [Atom]
    locations (used by the query-level driver). *)
val atom_diagnostics : Crpq.t -> Diagnostic.t list

(** [W105] empty-language-atom: the atom's NFA accepts no word (no
    final state reachable), so the atom — and the whole query — is
    unsatisfiable on every graph.  Decided at the automaton level, as
    a cross-check of the regex-level [E001] pass, and independent of
    any example graph (compare the graph-dependent [W104]). *)
val empty_language_atoms : Crpq.t -> Diagnostic.t list
