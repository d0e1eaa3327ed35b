let m_sweeps = Obs.Metrics.counter "bulk.sweeps"

let m_frontier_bits = Obs.Metrics.counter "bulk.frontier_bits"

let m_sweep_sparse = Obs.Metrics.counter "bulk.sweep_sparse"

let m_sweep_dense = Obs.Metrics.counter "bulk.sweep_dense"

let m_bits_scattered = Obs.Metrics.counter "bulk.bits_scattered"

let m_tiles = Obs.Metrics.counter "bulk.tiles"

let g_tile_rows = Obs.Metrics.gauge "bulk.tile_rows"

let g_peak_tile_words = Obs.Metrics.gauge "bulk.peak_tile_words"

type mode = Off | On | Auto

let mode_to_string = function Off -> "off" | On -> "on" | Auto -> "auto"

let mode_ref = ref Auto

let current_mode () = !mode_ref

let set_mode m = mode_ref := m

(* ------------------------------------------------------------------ *)
(* Sweep kernel selection (dense row OR vs sparse CSR push)            *)
(* ------------------------------------------------------------------ *)

type sweep = Sparse | Dense | Adaptive

let sweep_to_string = function
  | Sparse -> "sparse"
  | Dense -> "dense"
  | Adaptive -> "auto"

let sweep_ref = ref Adaptive

let current_sweep () = !sweep_ref

let set_sweep m = sweep_ref := m

(* The dense kernel needs one n×n bit matrix per label; past this node
   count the matrices are not built and every sweep pushes through CSR
   (at n = 16384 a label matrix is ~32 MiB; at n = 10⁵ it would be
   ~1.2 GiB). *)
let dense_node_cap = 16384

(* ------------------------------------------------------------------ *)
(* Source-block tiling                                                 *)
(* ------------------------------------------------------------------ *)

(* A tile holds three generations (visited / frontier / next) of one
   B×n matrix per NFA state; the default B is the largest block whose
   tile fits the ~64 MiB budget, so peak memory is O(B·n) however many
   sources are asked for.  The arithmetic uses only [Sys.int_size] and
   the problem dimensions, keeping tile boundaries — and therefore every
   bulk.* counter — machine- and domain-count-independent. *)
let tile_budget_words = 8 * 1024 * 1024

let block_ref = ref None

let current_block_rows () = !block_ref

let set_block_rows b =
  match b with
  | Some b when b < 1 -> invalid_arg "Bulk_rpq.set_block_rows"
  | b -> block_ref := b

let words_per_row n = (n + Sys.int_size - 1) / Sys.int_size

let block_rows ~nstates ~nnodes =
  match !block_ref with
  | Some b -> b
  | None ->
    let per_row = 3 * max 1 nstates * words_per_row (max 1 nnodes) in
    max 1 (tile_budget_words / per_row)

(* Peak tile working set (words), for the O(B·n) memory-bound assertion
   of the E17 bench: the gauge tracks the high-water mark across calls,
   [reset_peak_tile_words] scopes it to one measurement. *)
let peak_words = Atomic.make 0

let peak_tile_words () = Atomic.get peak_words

let reset_peak_tile_words () =
  Atomic.set peak_words 0;
  Obs.Metrics.set g_peak_tile_words 0

let note_tile_words w =
  let rec bump () =
    let cur = Atomic.get peak_words in
    if w > cur && not (Atomic.compare_and_set peak_words cur w) then bump ()
  in
  bump ();
  Obs.Metrics.set g_peak_tile_words (Atomic.get peak_words)

(* ------------------------------------------------------------------ *)
(* Engine selection                                                    *)
(* ------------------------------------------------------------------ *)

(* Auto crossover: below ~192 nodes the pointwise BFS's early exits beat
   the fixed per-sweep cost of full bitset rows; the last conjunct caps
   the per-tile product work (tiling keeps memory bounded regardless). *)
let auto_accepts g nfa =
  let n = Graph.nnodes g in
  let m = nfa.Nfa.nstates in
  n >= 192 && Graph.nedges g >= n && m * n * n <= 1 lsl 33

let use_bulk g nfa =
  match !mode_ref with
  | Off -> false
  | On -> true
  | Auto -> auto_accepts g nfa

(* ------------------------------------------------------------------ *)
(* Caller attribution for dispatch counters                             *)
(* ------------------------------------------------------------------ *)

(* [st_relation] serves several layers — the join evaluator, the RPQ
   surface, the containment deciders' expansion checks.  The ambient
   caller travels in domain-local storage (established fresh inside
   Parmap workers by each fan-out site, since worker domains start with
   default DLS), and every dispatch bumps
   [bulk.dispatch.<caller>.<engine>] so explain reports show which layer
   consumed which engine. *)
let caller_key : string option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let current_caller () = Domain.DLS.get caller_key

let with_caller name f =
  let prev = Domain.DLS.get caller_key in
  Domain.DLS.set caller_key (Some name);
  Fun.protect ~finally:(fun () -> Domain.DLS.set caller_key prev) f

let callers = [ "eval"; "containment"; "rpq"; "direct"; "other" ]

let engines = [ "pointwise"; "multi_source" ]

let dispatch_counters =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun c ->
      List.iter
        (fun e ->
          Hashtbl.replace tbl (c, e)
            (Obs.Metrics.counter (Printf.sprintf "bulk.dispatch.%s.%s" c e)))
        engines)
    callers;
  tbl

let note_dispatch engine =
  let caller =
    match current_caller () with
    | None -> "direct"
    | Some c -> if List.mem c callers then c else "other"
  in
  Obs.Metrics.incr (Hashtbl.find dispatch_counters (caller, engine))

(* ------------------------------------------------------------------ *)
(* Per-label adjacency, memoized per graph                             *)
(* ------------------------------------------------------------------ *)

module Adj_tbl = Cache.Memo (struct
  type t = int

  let equal = Int.equal

  let hash = Hashtbl.hash
end)

let adj_tbl : Bitmatrix.t array Adj_tbl.t =
  (* Matrices are large relative to typical memo entries; keep the LRU
     shallow. *)
  Adj_tbl.create ~cap:16 "bulk.adjacency"

let build_adjacency g =
  let n = Graph.nnodes g in
  let nl = Graph.nlabels g in
  let adj = Array.init nl (fun _ -> Bitmatrix.create ~rows:n ~cols:n) in
  List.iter
    (fun (u, a, v) ->
      match Graph.label_id g a with
      | Some ai -> Bitmatrix.set adj.(ai) u v
      | None -> ())
    (Graph.edges g);
  adj

let adjacency g = Adj_tbl.find_or_add adj_tbl (Graph.uid g) (fun () -> build_adjacency g)

(* ------------------------------------------------------------------ *)
(* Multiple-source frontier BFS: hybrid sparse/dense tiles              *)
(* ------------------------------------------------------------------ *)

(* Inputs shared by every tile of one [reach_pairs] call.  The dense
   label matrices are behind a lazy so the sparse-only regime (large n,
   or a forced sparse sweep) never allocates them; forcing [Dense] via
   the knob builds them whatever the size — the caps only steer the
   adaptive choice. *)
type ctx = {
  n : int;
  m : int;
  delta : (int * int) list array;
  csr : Csr.labeled;
  dense : Bitmatrix.t array Lazy.t;
  dense_ok : bool;
}

let make_ctx g nfa =
  {
    n = Graph.nnodes g;
    m = nfa.Nfa.nstates;
    delta = Path_search.intern_delta g nfa;
    csr = Csr.of_graph g;
    dense = lazy (adjacency g);
    dense_ok = Graph.nnodes g <= dense_node_cap;
  }

(* Density probe, run sequentially on the immutable frontier snapshot
   before the sweep fans out (so the choice — and with it every counter
   — is independent of the domain count).  The dense kernel costs
   [words_per_row] word-ORs per (frontier bit, transition); the sparse
   push costs one scattered bit per successor, each a few times the cost
   of a word-OR.  Degrees come from CSR pointer differences, so the
   probe itself is O(frontier bits × transitions).  A probe that gathers
   no successor at all has proved the next frontier empty: [None] ends
   the search without running the sweep.  The forced kernels skip the
   probe and always sweep. *)
let sparse_op_cost = 2

let choose_sweep ctx frontier rows =
  match !sweep_ref with
  | Sparse -> Some Sparse
  | Dense -> Some Dense
  | Adaptive ->
    if not ctx.dense_ok then Some Sparse
    else begin
      let wpr = words_per_row ctx.n in
      let dense_words = ref 0 and gathered = ref 0 in
      Array.iteri
        (fun q trans ->
          if trans <> [] then
            for i = 0 to rows - 1 do
              if not (Bitmatrix.is_row_empty frontier.(q) i) then
                Bitmatrix.iter_row frontier.(q) i (fun u ->
                    List.iter
                      (fun (ai, _) ->
                        dense_words := !dense_words + wpr;
                        gathered :=
                          !gathered + Csr.degree ctx.csr.Csr.fwd.(ai) u)
                      trans)
            done)
        ctx.delta;
      if !gathered = 0 then None
      else if sparse_op_cost * !gathered < !dense_words then Some Sparse
      else Some Dense
    end

let sweep_rows_dense ctx adj frontier nxt lo hi =
  for i = lo to hi do
    Array.iteri
      (fun q trans ->
        if trans <> [] && not (Bitmatrix.is_row_empty frontier.(q) i) then
          List.iter
            (fun (ai, q') ->
              Bitmatrix.iter_row frontier.(q) i (fun u ->
                  ignore (Bitmatrix.or_row_into ~src:adj.(ai) u ~dst:nxt.(q') i)))
            trans)
      ctx.delta
  done

let sweep_rows_sparse ctx frontier nxt lo hi =
  let scattered = ref 0 in
  for i = lo to hi do
    Array.iteri
      (fun q trans ->
        if trans <> [] && not (Bitmatrix.is_row_empty frontier.(q) i) then
          Bitmatrix.iter_row frontier.(q) i (fun u ->
              List.iter
                (fun (ai, q') ->
                  let c = ctx.csr.Csr.fwd.(ai) in
                  let len = Csr.degree c u in
                  if len > 0 then begin
                    Bitmatrix.scatter_row ~dst:nxt.(q') i (Csr.cols c)
                      ~ofs:(Csr.start c u) ~len;
                    scattered := !scattered + len
                  end)
                trans))
      ctx.delta
  done;
  Obs.Metrics.add m_bits_scattered !scattered

(* One tile: the synchronous sweep of PR 9 — next frontier computed from
   an immutable snapshot of the current one, row blocks of a sweep
   fanned over [Parmap] (disjoint writes per block) — with the kernel
   chosen per sweep by [choose_sweep].  Returns one s×n visited matrix
   per NFA state. *)
let solve_tile ctx nfa srcs =
  let n = ctx.n and m = ctx.m in
  let s = Array.length srcs in
  let fresh () = Array.init m (fun _ -> Bitmatrix.create ~rows:s ~cols:n) in
  let visited = fresh () in
  let frontier = fresh () in
  List.iter
    (fun q0 ->
      Array.iteri
        (fun i u ->
          Bitmatrix.set visited.(q0) i u;
          Bitmatrix.set frontier.(q0) i u)
        srcs)
    nfa.Nfa.initials;
  Array.iter (fun f -> Obs.Metrics.add m_frontier_bits (Bitmatrix.popcount f)) frontier;
  let blocks =
    (* Row blocks sized for the default fan-out; Parmap stays sequential
       when jobs = 1 or when called from inside another worker. *)
    let bs = max 64 ((s + 7) / 8) in
    let rec cut lo acc =
      if lo >= s then List.rev acc
      else cut (lo + bs) ((lo, min (lo + bs) s - 1) :: acc)
    in
    cut 0 []
  in
  let running = ref (s > 0 && Array.exists (fun f -> Bitmatrix.popcount f > 0) frontier) in
  while !running do
    Guard.checkpoint "bulk.sweep";
    match choose_sweep ctx frontier s with
    | None -> running := false
    | Some kernel ->
      Obs.Metrics.incr m_sweeps;
      let nxt = fresh () in
      (match kernel with
      | Dense ->
        Obs.Metrics.incr m_sweep_dense;
        let adj = Lazy.force ctx.dense in
        ignore
          (Parmap.map (fun (lo, hi) -> sweep_rows_dense ctx adj frontier nxt lo hi) blocks)
      | Sparse | Adaptive ->
        Obs.Metrics.incr m_sweep_sparse;
        ignore
          (Parmap.map (fun (lo, hi) -> sweep_rows_sparse ctx frontier nxt lo hi) blocks));
      running := false;
      for q = 0 to m - 1 do
        for i = 0 to s - 1 do
          ignore (Bitmatrix.diff_row_into ~mask:visited.(q) i ~dst:nxt.(q) i)
        done;
        let bits = Bitmatrix.popcount nxt.(q) in
        if bits > 0 then begin
          running := true;
          Obs.Metrics.add m_frontier_bits bits;
          ignore (Bitmatrix.union_into ~src:nxt.(q) ~dst:visited.(q))
        end;
        frontier.(q) <- nxt.(q)
      done
  done;
  visited

let reach_pairs g nfa srcs =
  let ctx = make_ctx g nfa in
  let n = ctx.n and m = ctx.m in
  let s = Array.length srcs in
  let out = Bitmatrix.create ~rows:s ~cols:n in
  let finals = ref [] in
  for q = 0 to m - 1 do
    if nfa.Nfa.finals.(q) then finals := q :: !finals
  done;
  let b = block_rows ~nstates:m ~nnodes:n in
  Obs.Metrics.set g_tile_rows (min b (max s 1));
  let lo = ref 0 in
  while !lo < s do
    let len = min b (s - !lo) in
    Obs.Metrics.incr m_tiles;
    note_tile_words (3 * m * len * words_per_row n);
    let visited = solve_tile ctx nfa (Array.sub srcs !lo len) in
    List.iter
      (fun q ->
        for i = 0 to len - 1 do
          ignore (Bitmatrix.or_row_into ~src:visited.(q) i ~dst:out (!lo + i))
        done)
      !finals;
    lo := !lo + len
  done;
  out

let reach_relation g nfa =
  let n = Graph.nnodes g in
  let seen = reach_pairs g nfa (Array.init n (fun u -> u)) in
  let rel = Array.make_matrix (max n 1) (max n 1) false in
  for u = 0 to n - 1 do
    Bitmatrix.iter_row seen u (fun v -> rel.(u).(v) <- true)
  done;
  rel

let st_relation g nfa =
  if use_bulk g nfa then begin
    note_dispatch "multi_source";
    reach_relation g nfa
  end
  else begin
    note_dispatch "pointwise";
    Path_search.reach_relation g nfa
  end
