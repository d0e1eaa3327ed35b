(* Packed boolean matrices.  One flat [int array] per matrix, row-major,
   [Sys.int_size] bits per word.  Native ints rather than Int64: an
   OCaml [int64 array] boxes each element, a plain [int array] is a flat
   unboxed block, and 63 usable bits per word lose only ~1.6% density.

   The top word of a row may have spare bits past [cols]; every kernel
   either masks them at the source ([set]) or treats them uniformly on
   both sides of a binary op, so they stay zero throughout. *)

let bits_per_word = Sys.int_size

let m_words_anded = Obs.Metrics.counter "bulk.words_anded"

type t = {
  rows : int;
  cols : int;
  wpr : int; (* words per row *)
  data : int array;
}

let create ~rows ~cols =
  if rows < 0 || cols < 0 then invalid_arg "Bitmatrix.create";
  let wpr = (cols + bits_per_word - 1) / bits_per_word in
  { rows; cols; wpr; data = Array.make (max (rows * wpr) 0) 0 }

let rows m = m.rows

let cols m = m.cols

let check m i j =
  if i < 0 || i >= m.rows || j < 0 || j >= m.cols then
    invalid_arg "Bitmatrix: index out of range"

let get m i j =
  check m i j;
  let w = m.data.((i * m.wpr) + (j / bits_per_word)) in
  w lsr (j mod bits_per_word) land 1 = 1

let set m i j =
  check m i j;
  let idx = (i * m.wpr) + (j / bits_per_word) in
  m.data.(idx) <- m.data.(idx) lor (1 lsl (j mod bits_per_word))

let clear m i j =
  check m i j;
  let idx = (i * m.wpr) + (j / bits_per_word) in
  m.data.(idx) <- m.data.(idx) land lnot (1 lsl (j mod bits_per_word))

let copy m = { m with data = Array.copy m.data }

let equal a b =
  a.rows = b.rows && a.cols = b.cols && a.data = b.data

(* 16-bit popcount table: 4 lookups cover a 63-bit word.  The usual SWAR
   constants (0x5555_5555_5555_5555, ...) overflow OCaml's 62-bit
   max_int, so a table is both simpler and legal. *)
let pop16 =
  let t = Bytes.make 65536 '\000' in
  for i = 1 to 65535 do
    Bytes.unsafe_set t i
      (Char.chr (Char.code (Bytes.unsafe_get t (i lsr 1)) + (i land 1)))
  done;
  t

let popcount_word w =
  (* [lsr] is a logical shift, so a negative word (bit 62 set) indexes
     correctly. *)
  Char.code (Bytes.unsafe_get pop16 (w land 0xFFFF))
  + Char.code (Bytes.unsafe_get pop16 ((w lsr 16) land 0xFFFF))
  + Char.code (Bytes.unsafe_get pop16 ((w lsr 32) land 0xFFFF))
  + Char.code (Bytes.unsafe_get pop16 ((w lsr 48) land 0xFFFF))

let row_popcount m i =
  if i < 0 || i >= m.rows then invalid_arg "Bitmatrix.row_popcount";
  let base = i * m.wpr in
  let acc = ref 0 in
  for k = 0 to m.wpr - 1 do
    acc := !acc + popcount_word (Array.unsafe_get m.data (base + k))
  done;
  !acc

let popcount m =
  let acc = ref 0 in
  for k = 0 to Array.length m.data - 1 do
    acc := !acc + popcount_word (Array.unsafe_get m.data k)
  done;
  !acc

let is_row_empty m i =
  if i < 0 || i >= m.rows then invalid_arg "Bitmatrix.is_row_empty";
  let base = i * m.wpr in
  let rec go k = k >= m.wpr || (Array.unsafe_get m.data (base + k) = 0 && go (k + 1)) in
  go 0

let iter_row m i f =
  if i < 0 || i >= m.rows then invalid_arg "Bitmatrix.iter_row";
  let base = i * m.wpr in
  for k = 0 to m.wpr - 1 do
    let w = ref (Array.unsafe_get m.data (base + k)) in
    let off = k * bits_per_word in
    while !w <> 0 do
      let low = !w land (- !w) in
      (* log2 of an isolated bit via popcount of low-1 *)
      f (off + popcount_word (low - 1));
      w := !w lxor low
    done
  done

let or_row_into ~src i ~dst j =
  if i < 0 || i >= src.rows || j < 0 || j >= dst.rows || src.cols <> dst.cols
  then invalid_arg "Bitmatrix.or_row_into";
  let sb = i * src.wpr and db = j * dst.wpr in
  let changed = ref false in
  for k = 0 to src.wpr - 1 do
    let d = Array.unsafe_get dst.data (db + k) in
    let d' = d lor Array.unsafe_get src.data (sb + k) in
    if d' <> d then begin
      changed := true;
      Array.unsafe_set dst.data (db + k) d'
    end
  done;
  Obs.Metrics.add m_words_anded src.wpr;
  !changed

let diff_row_into ~mask i ~dst j =
  if i < 0 || i >= mask.rows || j < 0 || j >= dst.rows || mask.cols <> dst.cols
  then invalid_arg "Bitmatrix.diff_row_into";
  let sb = i * mask.wpr and db = j * dst.wpr in
  let changed = ref false in
  for k = 0 to mask.wpr - 1 do
    let d = Array.unsafe_get dst.data (db + k) in
    let d' = d land lnot (Array.unsafe_get mask.data (sb + k)) in
    if d' <> d then begin
      changed := true;
      Array.unsafe_set dst.data (db + k) d'
    end
  done;
  Obs.Metrics.add m_words_anded mask.wpr;
  !changed

let scatter_row ~dst i cols ~ofs ~len =
  if
    i < 0 || i >= dst.rows || ofs < 0 || len < 0
    || ofs + len > Array.length cols
  then invalid_arg "Bitmatrix.scatter_row";
  let base = i * dst.wpr in
  for k = ofs to ofs + len - 1 do
    let j = Array.unsafe_get cols k in
    if j < 0 || j >= dst.cols then invalid_arg "Bitmatrix.scatter_row: column";
    let idx = base + (j / bits_per_word) in
    Array.unsafe_set dst.data idx
      (Array.unsafe_get dst.data idx lor (1 lsl (j mod bits_per_word)))
  done

let union_into ~src ~dst =
  if src.rows <> dst.rows || src.cols <> dst.cols then
    invalid_arg "Bitmatrix.union_into";
  let changed = ref false in
  for i = 0 to src.rows - 1 do
    if or_row_into ~src i ~dst i then changed := true
  done;
  !changed
