type profile = Word.t array

type expanded = {
  source : Crpq.t;
  profile : profile;
  cq : Cq.t;
  atom_related : (Cq.var * Cq.var) list;
  atom_edges : (Cq.var * Word.symbol * Cq.var) list list;
}

let internal_var i j = Printf.sprintf "$%d.%d" i j

let distinct_pairs_of_group rename group =
  (* all unordered pairs of distinct renamed variables of one atom
     expansion *)
  let renamed = List.sort_uniq String.compare (List.map rename group) in
  let rec go = function
    | [] -> []
    | x :: rest -> List.map (fun y -> (x, y)) rest @ go rest
  in
  go renamed

let expand_internal ~check q profile =
  let atoms = q.Crpq.atoms in
  if Array.length profile <> List.length atoms then
    invalid_arg "Expansion.expand: profile arity mismatch";
  if check then
    List.iteri
      (fun i (a : Crpq.atom) ->
        if not (Regex.matches a.Crpq.lang profile.(i)) then
          invalid_arg
            (Printf.sprintf "Expansion.expand: word %s not in language %s"
               (Word.to_string profile.(i))
               (Regex.to_string a.Crpq.lang)))
      atoms;
  let cq_atoms = ref [] in
  let eqs = ref [] in
  let groups = ref [] in
  List.iteri
    (fun i (a : Crpq.atom) ->
      match profile.(i) with
      | [] ->
        eqs := (a.Crpq.src, a.Crpq.dst) :: !eqs;
        groups := [] :: !groups
      | w ->
        let k = List.length w in
        let node j =
          if j = 0 then a.Crpq.src
          else if j = k then a.Crpq.dst
          else internal_var i j
        in
        List.iteri
          (fun j sym -> cq_atoms := Cq.atom (node j) sym (node (j + 1)) :: !cq_atoms)
          w;
        groups := List.init (k + 1) node :: !groups)
    atoms;
  let with_eq = { Cq.base = Cq.make ~free:q.Crpq.free !cq_atoms; eqs = !eqs } in
  let cq, rename = Cq.collapse with_eq in
  let atom_related =
    List.sort_uniq Stdlib.compare
      (List.concat_map (distinct_pairs_of_group rename) !groups)
  in
  let atom_edges =
    (* per-atom expansion edges, renamed through Φ *)
    List.rev
      (snd
         (List.fold_left
            (fun (i, acc) (a : Crpq.atom) ->
              let w = profile.(i) in
              let k = List.length w in
              let node j =
                if j = 0 then a.Crpq.src
                else if j = k then a.Crpq.dst
                else internal_var i j
              in
              let edges =
                List.mapi (fun j sym -> (rename (node j), sym, rename (node (j + 1)))) w
              in
              (i + 1, edges :: acc))
            (0, []) q.Crpq.atoms))
  in
  { source = q; profile; cq; atom_related; atom_edges }

let expand q profile = expand_internal ~check:true q profile

let expand_unchecked q profile = expand_internal ~check:false q profile

let cartesian lists =
  List.fold_right
    (fun choices acc ->
      List.concat_map
        (fun c ->
          Guard.checkpoint "expansion.profiles";
          List.map (fun rest -> c :: rest) acc)
        choices)
    lists [ [] ]

let profiles ~max_len q =
  let word_choices (a : Crpq.atom) = Regex.enumerate ~max_len a.Crpq.lang in
  let per_atom = List.map word_choices q.Crpq.atoms in
  List.map Array.of_list (cartesian per_atom)

let expansions ~max_len q =
  List.map (expand_unchecked q) (profiles ~max_len q)

let finite_expansions q =
  if not (Crpq.is_finite q) then
    invalid_arg "Expansion.finite_expansions: query has infinite languages";
  let per_atom =
    List.map (fun (a : Crpq.atom) -> Regex.words_of_finite a.Crpq.lang) q.Crpq.atoms
  in
  List.map (fun p -> expand_unchecked q (Array.of_list p)) (cartesian per_atom)

(* ------------------------------------------------------------------ *)
(* a-inj merges: partitions avoiding atom-related pairs                *)
(* ------------------------------------------------------------------ *)

(* The set partitions of the nodes [0 .. n - 1] that keep the pairs
   [forbidden] apart, as restricted growth strings: the block id of each
   node (blocks numbered in the order of their least node) with the
   number of blocks. *)
let partitions_avoiding n forbidden =
  let forbid = Array.make_matrix n n false in
  List.iter
    (fun (x, y) ->
      forbid.(x).(y) <- true;
      forbid.(y).(x) <- true)
    forbidden;
  let block = Array.make n 0 in
  let results = ref [] in
  let rec go i nblocks =
    Guard.checkpoint "expansion.partitions";
    if i = n then results := (Array.copy block, nblocks) :: !results
    else
      for b = 0 to nblocks do
        let ok = ref true in
        for j = 0 to i - 1 do
          if block.(j) = b && forbid.(i).(j) then ok := false
        done;
        if !ok then begin
          block.(i) <- b;
          go (i + 1) (max nblocks (b + 1))
        end
      done
  in
  go 0 0;
  !results

(* The variables of [e.cq] in node order, and [e.atom_related] as node
   pairs. *)
let related_nodes e =
  let vars = Array.of_list (Cq.vars e.cq) in
  let index = Hashtbl.create 16 in
  Array.iteri (fun i x -> Hashtbl.replace index x i) vars;
  let node = Hashtbl.find index in
  (vars, List.map (fun (x, y) -> (node x, node y)) e.atom_related)

(* The equality atoms merging each block into its least variable. *)
let block_eqs vars (block, nblocks) =
  let blocks = Array.make nblocks [] in
  for j = Array.length vars - 1 downto 0 do
    blocks.(block.(j)) <- vars.(j) :: blocks.(block.(j))
  done;
  List.concat_map
    (function [] | [ _ ] -> [] | rep :: rest -> List.map (fun x -> (rep, x)) rest)
    (Array.to_list blocks)

let merges e =
  let vars, related = related_nodes e in
  List.map
    (fun part ->
      let cq, rename = Cq.collapse { Cq.base = e.cq; eqs = block_eqs vars part } in
      let atom_related =
        List.sort_uniq Stdlib.compare
          (List.map (fun (x, y) -> (rename x, rename y)) e.atom_related)
      in
      let atom_edges =
        List.map
          (List.map (fun (x, sym, y) -> (rename x, sym, rename y)))
          e.atom_edges
      in
      { e with cq; atom_related; atom_edges })
    (partitions_avoiding (Array.length vars) related)

let merge e eqs =
  let cq, rename = Cq.collapse { Cq.base = e.cq; eqs } in
  let atom_related =
    List.map (fun (x, y) -> (rename x, rename y)) e.atom_related
  in
  if List.exists (fun (x, y) -> String.equal x y) atom_related then
    invalid_arg "Expansion.merge: an atom-related pair would collapse";
  let atom_edges =
    List.map
      (List.map (fun (x, sym, y) -> (rename x, sym, rename y)))
      e.atom_edges
  in
  {
    e with
    cq;
    atom_related = List.sort_uniq Stdlib.compare atom_related;
    atom_edges;
  }

let dedup_expanded es =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun e ->
      let key = (e.cq.Cq.atoms, e.cq.Cq.free) in
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.add seen key ();
        true
      end)
    es

let ainj_expansions ~max_len q =
  dedup_expanded (List.concat_map merges (expansions ~max_len q))

let finite_ainj_expansions q =
  dedup_expanded (List.concat_map merges (finite_expansions q))

let to_graph e =
  let g, _names = Cq.to_graph e.cq in
  (g, Cq.free_nodes e.cq)

(* ------------------------------------------------------------------ *)
(* a-inj candidates as graphs                                          *)
(* ------------------------------------------------------------------ *)

type candidate = {
  base : expanded;
  part : int array * int;  (** the merge, as a partition of [base]'s nodes *)
  graph : Graph.t;
  tuple : Graph.node list;
}

(* A merge of [e] is the quotient of [e]'s graph by a partition of its
   nodes.  The nodes of [to_graph] are the variables in name order, and
   collapsing keeps the least name of each class, so block [b] of the
   partition is node [b] of the merged expansion's graph, and the merged
   expansion's atoms (with its free tuple) are determined by the names
   of the blocks' least nodes, the block-id edges and the block-id free
   tuple.  That triple is the dedup key, so [ainj_candidates] keeps
   exactly the merges [ainj_expansions] keeps, in the same order. *)
let ainj_candidates ?max_len q =
  let bases =
    match max_len with
    | None -> finite_expansions q
    | Some max_len -> expansions ~max_len q
  in
  let quotients e =
    let g, names = Cq.to_graph e.cq in
    let _, related = related_nodes e in
    let edges = Graph.edges g and free = Cq.free_nodes e.cq in
    List.map
      (fun ((block, nblocks) as part) ->
        let reps = Array.make nblocks "" in
        for j = Array.length names - 1 downto 0 do
          reps.(block.(j)) <- names.(j)
        done;
        let edges =
          List.sort_uniq Stdlib.compare
            (List.map (fun (u, a, v) -> (block.(u), a, block.(v))) edges)
        in
        let tuple = List.map (fun u -> block.(u)) free in
        ((reps, edges, tuple), part))
      (partitions_avoiding (Array.length names) related)
  in
  let seen = Hashtbl.create 64 in
  List.concat_map
    (fun e ->
      List.filter_map
        (fun (((_, edges, tuple) as key), ((_, nblocks) as part)) ->
          if Hashtbl.mem seen key then None
          else begin
            Hashtbl.add seen key ();
            Some { base = e; part; graph = Graph.make ~nnodes:nblocks edges; tuple }
          end)
        (quotients e))
    bases

let candidate_graph c = (c.graph, c.tuple)

let candidate_expansion c =
  merge c.base (block_eqs (Array.of_list (Cq.vars c.base.cq)) c.part)

let pp ppf e =
  Format.fprintf ppf "@[<v>expansion via profile [%a]@,%a@]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
       Word.pp)
    (Array.to_list e.profile) Cq.pp e.cq
