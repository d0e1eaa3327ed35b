(** Unions of CRPQs (UCRPQs) — the first extension direction the paper
    names in Section 7.

    A UCRPQ is a finite disjunction {m \bigvee_i Q_i} of CRPQs of the
    same arity.  Evaluation is the union of the disjuncts' answers;
    containment quantifies over disjuncts:
    {m \bigvee_i P_i \subseteq \bigvee_j R_j} iff every
    {m P_i}-counterexample candidate is covered by {e some} {m R_j}. *)

type t = private {
  disjuncts : Crpq.t list;  (** non-empty, all of the same arity *)
  arity : int;
}

(** @raise Invalid_argument on an empty union or mixed arities. *)
val make : Crpq.t list -> t

val of_crpq : Crpq.t -> t

(** The union with no answers (of the given arity). *)
val empty : arity:int -> t

val union : t -> t -> t

(** Class of the union: the coarsest class among disjuncts. *)
val classify : t -> Crpq.cls

(** {1 Evaluation} *)

val eval : Semantics.t -> t -> Graph.t -> Graph.node list list

val check : Semantics.t -> t -> Graph.t -> Graph.node list -> bool

val eval_bool : Semantics.t -> t -> Graph.t -> bool

(** {1 Containment}

    Same verdicts, from the same dispatcher, as {!Containment}:
    [contained] is {!Containment.decide_union} on the disjuncts, so a
    singleton union gets exactly {!Containment.decide}'s answer. *)

(** @raise Invalid_argument on edge semantics or unions of different
    arities. *)
val contained :
  ?bound:int -> ?guard:Guard.t -> Semantics.t -> t -> t -> Containment.verdict

(** [equivalent sem u1 u2]: both containments; [None] if either is
    undecided. *)
val equivalent :
  ?bound:int -> ?guard:Guard.t -> Semantics.t -> t -> t -> bool option

val pp : Format.formatter -> t -> unit

val to_string : t -> string
