(** Dense boolean matrices over packed bitset rows — the kernel layer of
    the bulk RPQ engine ({!Bulk_rpq}).

    A matrix is row-major: each row is a run of [words_per_row] native
    ints, [Sys.int_size] bits per word (63 on 64-bit systems; native
    ints are used instead of [Int64] because OCaml [int64 array]s box
    every element, while an [int array] is a flat unboxed block).  All
    kernels are allocation-free on the hot path; popcounts go through a
    precomputed 16-bit table (SWAR masks such as [0x5555...] do not fit
    in OCaml's 63-bit immediates).

    Word-level work is observable: every row OR/AND-NOT is accounted by
    the [bulk.words_anded] counter (a no-op unless [Obs.Metrics] is
    enabled). *)

type t

(** [create ~rows ~cols] is the all-zeros [rows] × [cols] matrix.
    Zero-sized dimensions are allowed. *)
val create : rows:int -> cols:int -> t

val rows : t -> int

val cols : t -> int

val get : t -> int -> int -> bool

val set : t -> int -> int -> unit

val clear : t -> int -> int -> unit

val copy : t -> t

(** Structural equality of dimensions and bits. *)
val equal : t -> t -> bool

(** Number of set bits in row [i]. *)
val row_popcount : t -> int -> int

(** Total number of set bits. *)
val popcount : t -> int

val is_row_empty : t -> int -> bool

(** [iter_row m i f] applies [f] to each set column of row [i] in
    ascending order. *)
val iter_row : t -> int -> (int -> unit) -> unit

(** [or_row_into ~src i ~dst j] ORs row [i] of [src] into row [j] of
    [dst]; returns [true] iff [dst] changed.  Rows must have equal
    column counts. *)
val or_row_into : src:t -> int -> dst:t -> int -> bool

(** [diff_row_into ~mask i ~dst j] clears from row [j] of [dst] every
    bit set in row [i] of [mask] (i.e. [dst_j <- dst_j AND NOT mask_i]);
    returns [true] iff [dst] changed. *)
val diff_row_into : mask:t -> int -> dst:t -> int -> bool

(** [scatter_row ~dst i cols ~ofs ~len] sets, in row [i] of [dst], the
    bit of every column listed in [cols.(ofs .. ofs+len-1)] — the sparse
    counterpart of {!or_row_into}, used by the CSR frontier push of
    {!Bulk_rpq} (the [cols] slice is a CSR successor run).  Work is
    O(len) independent of the row width; the caller accounts it (the
    [bulk.bits_scattered] counter) since, unlike the dense kernels,
    there is no per-word loop to meter here. *)
val scatter_row : dst:t -> int -> int array -> ofs:int -> len:int -> unit

(** [union_into ~src ~dst] ORs all of [src] into [dst] (same
    dimensions); returns [true] iff [dst] changed. *)
val union_into : src:t -> dst:t -> bool
