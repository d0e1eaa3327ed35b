(** Process-wide memoization layer.

    Four tables use it, each one on a path the measured workloads hit
    repeatedly: [nfa.of_regex] (the NFA of an atom language),
    [regex.enumerate] (the short words of an atom language, for the
    expansion searches), [bulk.adjacency] and [bulk.csr] (the per-graph
    label matrices and CSR index).  Every memo table made through
    {!Memo} shares one runtime switch (default on,
    [INJCRPQ_CACHE=off|0|false] disables it), registers
    [cache.<name>.hits] / [.misses] / [.evictions] counters with
    {!Obs.Metrics}, and appears in the global {!clear_all} registry.

    Guard discipline: entries are inserted only after the underlying
    computation returns, so a {!Guard.Trip} raised mid-construction
    never poisons the table — the next call recomputes.  While
    {!Guard.Chaos} is armed, lookups are bypassed entirely so fault
    injection always exercises the real construction paths. *)

val is_enabled : unit -> bool

val set_enabled : bool -> unit
(** Runtime override of the [INJCRPQ_CACHE] default; flipping the
    switch does not clear existing entries (use {!clear_all}). *)

val clear_all : unit -> unit
(** Empty every memo table created through {!Memo}. *)

module Memo (K : Hashtbl.HashedType) : sig
  type 'a t

  val create : ?cap:int -> ?site:string -> string -> 'a t
  (** [create name] registers a bounded memo table ([cap] defaults to
      512 entries, LRU eviction).  [site], when given, names a
      {!Guard.checkpoint} probed on {e every} call — hit or miss — so a
      cached result still counts towards fuel/deadline budgets and
      chaos rules for that site keep firing. *)

  val find_or_add : 'a t -> K.t -> (unit -> 'a) -> 'a
  (** Memoized call.  The computation runs outside the table lock (two
      domains may race to compute the same key; both results are
      structurally equal and the last insert wins). *)

  val clear : 'a t -> unit
end
