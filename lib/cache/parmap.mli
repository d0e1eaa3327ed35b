(** Fan independent subproblems across OCaml 5 domains.

    Deterministic by construction: {!map} preserves input order and
    {!find_mapi} returns the match with the {e lowest} input index, so a
    parallel run returns exactly what the sequential run returns —
    the property the differential test suite pins down.

    Degenerate cases stay sequential: an effective job count of 1, an
    input shorter than the job count, or a call made from inside another
    Parmap worker (no nested domain explosions).  Workers inherit the
    caller's ambient {!Guard.t}, so deadlines, fuel and cancellation
    keep applying under parallel fan-out (fuel accounting across
    domains is approximate: decrements are unsynchronized).

    A worker exception (including {!Guard.Trip}) aborts the fan-out and
    is re-raised in the caller after all domains are joined, so
    [Guard.supervise] boundaries behave identically in both modes. *)

val default_jobs : unit -> int
(** Initialized from [INJCRPQ_JOBS] (default 1 = sequential). *)

val set_default_jobs : int -> unit
(** @raise Invalid_argument if the count is not positive. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** Order-preserving parallel map. *)

val find_mapi : ?jobs:int -> (int -> 'a -> 'b option) -> 'a list -> (int * 'b) option
(** First match in input order, with its index ([f] may additionally be
    applied to later elements before the fan-out drains). *)
