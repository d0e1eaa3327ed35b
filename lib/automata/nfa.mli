(** Non-deterministic finite automata without epsilon transitions.

    NFAs are the operational representation of CRPQ atom languages: path
    searches run the product of a graph with an NFA, and the containment
    algorithm of Theorem 5.1 works with the disjoint union {m A_{Q_2}} of
    the NFAs of the right-hand query, made complete and co-complete.
    There is no NFA × NFA product: language inclusion goes through
    {!Dfa}. *)

type state = int

type t = {
  nstates : int;
  initials : state list;
  finals : bool array;  (** length [nstates] *)
  delta : (Word.symbol * state) list array;
      (** out-transitions per state; no duplicates *)
}

(** Thompson construction followed by epsilon elimination.  Memoized on
    the regex (see {!Cache}): callers receive shared automata and must
    not mutate the [finals]/[delta] arrays. *)
val of_regex : Regex.t -> t

(** All symbols labelling some transition. *)
val alphabet : t -> Word.symbol list

val is_final : t -> state -> bool

val final_states : t -> state list

(** [next_set a s x] is the set of successors of the state set [s] on
    symbol [x]. *)
val next_set : t -> state list -> Word.symbol -> state list

val accepts : t -> Word.t -> bool

(** Does the automaton accept the empty word? *)
val accepts_eps : t -> bool

val is_empty : t -> bool

val shortest_word : t -> Word.t option

(** All accepted words of length at most [max_len], without duplicates,
    in length-lexicographic order. *)
val enumerate : max_len:int -> t -> Word.t list

(** Disjoint union.  The states of the second automaton are shifted by
    [nstates] of the first. *)
val union : t -> t -> t

(** Disjoint union of several automata; returns the union together with
    the state offset of each component. *)
val union_list : t list -> t * int array

val reverse : t -> t

(** Keep only states that are reachable and co-reachable. *)
val trim : t -> t

(** [complete ~alphabet a] adds a non-final sink so that every state has
    an outgoing transition for every symbol of [alphabet]. *)
val complete : alphabet:Word.symbol list -> t -> t

(** [co_complete ~alphabet a] adds a fresh non-initial, non-final source
    state so that every state has an incoming transition for every symbol
    of [alphabet].  The language is unchanged. *)
val co_complete : alphabet:Word.symbol list -> t -> t

val pp : Format.formatter -> t -> unit
