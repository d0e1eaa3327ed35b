(** Regular expressions over an alphabet of string symbols.

    This is the syntax used for CRPQ atom languages {m x \xrightarrow{L} y}.
    The module provides smart constructors, a concrete syntax with parser
    and printer, Brzozowski-derivative matching (used as an independent
    oracle against {!Nfa} in the test suite), and enumeration of language
    words, which drives the expansion machinery of the paper (Section
    2.2). *)

type t =
  | Empty  (** the empty language {m \emptyset} *)
  | Eps  (** the singleton {m \{\varepsilon\}} *)
  | Sym of Word.symbol
  | Seq of t * t
  | Alt of t * t
  | Star of t
  | Plus of t
  | Opt of t

(** {1 Smart constructors}

    These perform local simplifications ([Empty] absorption, [Eps]
    elimination, idempotent star). *)

val empty : t

val eps : t

val sym : Word.symbol -> t

val seq : t -> t -> t

val alt : t -> t -> t

val star : t -> t

val plus : t -> t

val opt : t -> t

val seq_list : t list -> t

val alt_list : t list -> t

(** [word w] denotes the singleton language {m \{w\}}. *)
val word : Word.t -> t

(** [alt_words ws] denotes the finite language [ws]. *)
val alt_words : Word.t list -> t

(** {1 Predicates and measures} *)

(** [nullable r] holds iff {m \varepsilon \in L(r)}. *)
val nullable : t -> bool

(** [is_empty_lang r] holds iff {m L(r) = \emptyset}. *)
val is_empty_lang : t -> bool

(** [is_finite r] holds iff the regex has no [Star]/[Plus] over a
    non-trivial language, i.e. the query class CRPQ{^ fin} of the paper. *)
val is_finite : t -> bool

(** All symbols occurring in the expression. *)
val alphabet : t -> Word.symbol list

(** Number of AST nodes. *)
val size : t -> int

val equal : t -> t -> bool

val compare : t -> t -> int

(** {1 Semantics} *)

(** Brzozowski derivative {m a^{-1}L}. *)
val derivative : Word.symbol -> t -> t

(** [matches r w] decides {m w \in L(r)} via derivatives. *)
val matches : t -> Word.t -> bool

(** Language of the reversed expression. *)
val reverse : t -> t

(** [remove_eps r] denotes {m L(r) \setminus \{\varepsilon\}}. *)
val remove_eps : t -> t

(** {1 Enumeration} *)

(** [enumerate ~max_len r] lists all words of {m L(r)} of length at most
    [max_len], in length-lexicographic order and without duplicates
    ([[]] when [max_len < 0]). *)
val enumerate : max_len:int -> t -> Word.t list

(** [words_of_finite r] is the exact, finite language of [r].
    @raise Invalid_argument if [is_finite r] is false. *)
val words_of_finite : t -> Word.t list

(** A shortest word of the language, if non-empty. *)
val shortest_word : t -> Word.t option

(** {1 Concrete syntax}

    Grammar: alternation [|], concatenation by juxtaposition, postfix
    [*], [+], [?], grouping with parentheses, [%] for {m \varepsilon},
    [!] for {m \emptyset}; a symbol is a single character or [<name>]. *)

exception Parse_error of string

val parse : string -> t

val to_string : t -> string

val pp : Format.formatter -> t -> unit
