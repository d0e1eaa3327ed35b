(** Deterministic finite automata over an explicit alphabet.

    Used for language-level decision procedures: inclusion, equivalence,
    complement.  These back the regular-language reasoning needed by the
    containment deciders (e.g. RPQ/RPQ containment, which coincides for
    all three semantics — Proposition F.8's observation). *)

type t = {
  alphabet : Word.symbol array;
  nstates : int;
  start : int;
  finals : bool array;
  next : int array array;  (** [next.(q).(i)]: successor of [q] on [alphabet.(i)] *)
}

(** Subset construction.  [alphabet] defaults to the NFA's own alphabet;
    pass a larger one when comparing languages over a common alphabet. *)
val of_nfa : ?alphabet:Word.symbol list -> Nfa.t -> t

val accepts : t -> Word.t -> bool

val complement : t -> t

val intersect : t -> t -> t

val is_empty : t -> bool

(** Moore partition refinement. *)
val minimize : t -> t

(** A shortest accepted word, if any. *)
val shortest_word : t -> Word.t option

(** {1 Language-level decisions on NFAs} *)

(** [included a b] decides {m L(a) \subseteq L(b)}. *)
val included : Nfa.t -> Nfa.t -> bool

(** [regex_included r s] decides {m L(r) \subseteq L(s)}. *)
val regex_included : Regex.t -> Regex.t -> bool

val regex_equivalent : Regex.t -> Regex.t -> bool
