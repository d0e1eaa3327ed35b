(** Conversions between automata and {!Regex.t}.

    {!Minimize.prune_languages} and {!Containment_f7} build automata
    (a minimized DFA, a complemented DFA) and need them back as an NFA
    or as a regular expression; these are the two conversions. *)

(** [of_nfa a] is a regular expression denoting {m L(a)}
    (Brzozowski–McCluskey state elimination; the result can be large
    but is exact). *)
val of_nfa : Nfa.t -> Regex.t

(** View a DFA as an NFA (e.g. to feed a minimized DFA back into
    {!of_nfa}). *)
val nfa_of_dfa : Dfa.t -> Nfa.t
