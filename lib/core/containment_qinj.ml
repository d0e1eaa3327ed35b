exception Unsupported of string

type result =
  | Qinj_contained
  | Qinj_not_contained of Expansion.expanded

type stats = {
  lhs_disjuncts : int;
  rhs_disjuncts : int;
  abstractions_checked : int;
  morphism_types : int;
  aq2_states : int;
}

(* Search telemetry (no-ops unless [Obs.Metrics] is enabled).  The
   per-call [stats] record above is exact but scoped to one decision;
   these aggregate across a whole run for `--stats` / bench output. *)
let m_abstraction_states = Obs.Metrics.counter "qinj.abstraction_states"

let m_abstractions_checked = Obs.Metrics.counter "qinj.abstractions_checked"

let m_morphism_types = Obs.Metrics.counter "qinj.morphism_types"

(* The explosion caps: tracker states explored per language, morphism
   types pulled and abstractions checked per decision. *)
let max_tracker_states = 60000

let max_types = 50000

let max_abstractions = 400000

(* ------------------------------------------------------------------ *)
(* Packed bit rows over the states of A_Q2                             *)
(* ------------------------------------------------------------------ *)

(* A set of states is a row of [words n] native ints holding [w] bits
   each; a relation is [n] such rows laid end to end, row [q] at word
   [q * nw].  Every word is read in [chunks] chunks of [chunk_bits]
   bits, so [w] is a multiple of [chunk_bits] and no chunk straddles a
   word.  On 64-bit platforms [w = 63]: bit 62 is the sign bit, so a
   word is tested with [<> 0] and shifted with [lsr], never [asr]. *)
module Bits = struct
  let chunk_bits = 9

  let chunks = Sys.int_size / chunk_bits

  let w = chunks * chunk_bits

  let words n = (n + w - 1) / w

  let mem a off q = a.(off + (q / w)) land (1 lsl (q mod w)) <> 0

  let add a off q =
    let i = off + (q / w) in
    a.(i) <- a.(i) lor (1 lsl (q mod w))

  (* [dst.(doff ..) <- dst.(doff ..) lor src.(soff ..)] over [nw] words *)
  let or_into ~nw src soff dst doff =
    for k = 0 to nw - 1 do
      dst.(doff + k) <- dst.(doff + k) lor src.(soff + k)
    done

  let rec intersects ~nw a aoff b boff =
    nw > 0
    && (a.(aoff) land b.(boff) <> 0 || intersects ~nw:(nw - 1) a (aoff + 1) b (boff + 1))

  let of_list ~nw qs =
    let r = Array.make nw 0 in
    List.iter (add r 0) qs;
    r
end

(* ------------------------------------------------------------------ *)
(* Language surgery for the Remark C.2 rewriting                       *)
(* ------------------------------------------------------------------ *)

(* L \ {a} for ε-free L: single letters of L other than a, plus all words
   of length >= 2, via the derivative decomposition
   L ∩ Σ^{>=2} = Σ_b b · ((b⁻¹L) \ ε). *)
let remove_letter_word lang a =
  let letters = Regex.alphabet lang in
  let singles =
    List.filter
      (fun b -> (not (String.equal a b)) && Regex.nullable (Regex.derivative b lang))
      letters
  in
  let longs =
    List.map
      (fun b -> Regex.seq (Regex.sym b) (Regex.remove_eps (Regex.derivative b lang)))
      letters
  in
  Regex.alt (Regex.alt_words (List.map (fun b -> [ b ]) singles))
    (Regex.alt_list longs)

let single_letters lang =
  List.filter
    (fun b -> Regex.nullable (Regex.derivative b lang))
    (Regex.alphabet lang)

let rec remove_once x = function
  | [] -> []
  | y :: rest -> if y = x then rest else y :: remove_once x rest

(* Remark C.1: concatenate away non-free (1,1)-variables. *)
let normalize_concat q =
  let rec go (q : Crpq.t) =
    let vars = Crpq.vars q in
    let incoming y = List.filter (fun (a : Crpq.atom) -> a.Crpq.dst = y) q.Crpq.atoms in
    let outgoing y = List.filter (fun (a : Crpq.atom) -> a.Crpq.src = y) q.Crpq.atoms in
    let candidate y =
      if List.mem y q.Crpq.free then None
      else
        match incoming y, outgoing y with
        | [ a ], [ b ] when a <> b && a.Crpq.src <> y && b.Crpq.dst <> y ->
          Some (y, a, b)
        | _ -> None
    in
    match List.find_map candidate vars with
    | None -> q
    | Some (_, a, b) ->
      let others = remove_once a (remove_once b q.Crpq.atoms) in
      let merged =
        Crpq.atom a.Crpq.src (Regex.Seq (a.Crpq.lang, b.Crpq.lang)) b.Crpq.dst
      in
      go (Crpq.make ~free:q.Crpq.free (merged :: others))
  in
  go q

(* Remark C.2 (ii): no two parallel atoms may share a single-letter word.
   Split into a union: one of them gives up the letter, or both take it
   and merge into a single-letter atom. *)
let split_parallel_letters q =
  let find_conflict (q : Crpq.t) =
    let atoms = Array.of_list q.Crpq.atoms in
    let n = Array.length atoms in
    let rec scan i j =
      if i >= n then None
      else if j >= n then scan (i + 1) (i + 2)
      else begin
        let a = atoms.(i) and b = atoms.(j) in
        if a.Crpq.src = b.Crpq.src && a.Crpq.dst = b.Crpq.dst then begin
          let shared =
            List.filter
              (fun l -> List.mem l (single_letters b.Crpq.lang))
              (single_letters a.Crpq.lang)
          in
          match shared with
          | [] -> scan i (j + 1)
          | l :: _ -> Some (a, b, l)
        end
        else scan i (j + 1)
      end
    in
    scan 0 1
  in
  let rec go q =
    match find_conflict q with
    | None -> [ q ]
    | Some (a, b, l) ->
      let others = remove_once a (remove_once b q.Crpq.atoms) in
      let variant atoms = Crpq.make ~free:q.Crpq.free atoms in
      let without_empty qs =
        List.filter (fun p -> not (Crpq.has_empty_language p)) qs
      in
      let v1 =
        variant ({ a with Crpq.lang = remove_letter_word a.Crpq.lang l } :: b :: others)
      in
      let v2 =
        variant (a :: { b with Crpq.lang = remove_letter_word b.Crpq.lang l } :: others)
      in
      let v3 =
        variant (Crpq.atom a.Crpq.src (Regex.sym l) a.Crpq.dst :: others)
      in
      List.concat_map go (without_empty [ v1; v2; v3 ])
  in
  List.sort_uniq Stdlib.compare (go q)

(* ------------------------------------------------------------------ *)
(* The combined right-hand automaton A_Q2                              *)
(* ------------------------------------------------------------------ *)

(* What the tracker needs about one letter [a], computed once per
   decision: Δa as packed rows, a chunk table that turns r ∘ Δa into one
   row OR per nonzero chunk of r, and the image of the initial states.
   A decision reads few of the table's entries, so they are allocated
   per chunk group and filled one by one, on first use. *)
type letter_tables = {
  delta : int array;  (** Δa: [n] rows *)
  table : int array array;
      (** per chunk group [g], [[||]] until first used; entry [v] is [nw]
          words at [v * nw]: the union of the Δa rows of the states
          [g * chunk_bits + b] for the bits [b] set in [v] *)
  filled : Bytes.t;  (** ['\001'] at [(g lsl chunk_bits) + v] once filled *)
  img_init : int array;  (** one row: Δa-successors of the initial states *)
}

type aq2 = {
  n : int;  (** number of states *)
  nw : int;  (** words per row *)
  atoms : (int * Crpq.atom) array;  (** (disjunct id, atom) per atom id *)
  ranges : (int * int) array;  (** state range [lo, hi) per atom id *)
  finals : int array;  (** one row: the component final states *)
  atom_inits : int list array;  (** per atom id: its initial states *)
  atom_init_masks : int array array;  (** per atom id: the same as a row *)
  atom_finals : int list array;
  atom_final_masks : int array array;
  states : int list;  (** every state *)
  all_states : int array;  (** the same as a row *)
  letters : (Word.symbol, letter_tables) Hashtbl.t;
}

let letter_tables ~n ~nw (completed : Nfa.t) initials letter =
  let delta = Array.make (n * nw) 0 in
  Array.iteri
    (fun q out ->
      List.iter (fun (x, q') -> if String.equal x letter then Bits.add delta (q * nw) q') out)
    completed.Nfa.delta;
  let groups = (n + Bits.chunk_bits - 1) / Bits.chunk_bits in
  let img_init = Array.make nw 0 in
  List.iter (fun q -> Bits.or_into ~nw delta (q * nw) img_init 0) initials;
  {
    delta;
    table = Array.make groups [||];
    filled = Bytes.make (groups lsl Bits.chunk_bits) '\000';
    img_init;
  }

(* chunk group [g]'s table, whose entry [v] is filled on first use *)
let entry ~nw lt g v =
  let e = (g lsl Bits.chunk_bits) + v in
  if Bytes.get lt.filled e = '\000' then begin
    if Array.length lt.table.(g) = 0 then
      lt.table.(g) <- Array.make (nw lsl Bits.chunk_bits) 0;
    let n = Array.length lt.delta / nw in
    for b = 0 to Bits.chunk_bits - 1 do
      let q = (g * Bits.chunk_bits) + b in
      if v land (1 lsl b) <> 0 && q < n then
        Bits.or_into ~nw lt.delta (q * nw) lt.table.(g) (v * nw)
    done;
    Bytes.set lt.filled e '\001'
  end;
  lt.table.(g)

let build_aq2 ~alphabet rhs_disjuncts =
  let atoms =
    Array.of_list
      (List.concat
         (List.mapi
            (fun di (d : Crpq.t) -> List.map (fun a -> (di, a)) d.Crpq.atoms)
            rhs_disjuncts))
  in
  if Array.length atoms = 0 then None
  else begin
    let nfas =
      Array.to_list (Array.map (fun (_, a) -> Crpq.nfa a.Crpq.lang) atoms)
    in
    let combined, offsets = Nfa.union_list nfas in
    let ranges =
      Array.mapi
        (fun i nfa_i ->
          let lo = offsets.(i) in
          (lo, lo + nfa_i.Nfa.nstates))
        (Array.of_list nfas)
    in
    let initials = combined.Nfa.initials in
    let finals = Nfa.final_states combined in
    (* complete and co-complete over the common alphabet; the added sink
       and source states are outside every component range *)
    let completed = Nfa.co_complete ~alphabet (Nfa.complete ~alphabet combined) in
    let n = completed.Nfa.nstates in
    let nw = Bits.words n in
    let in_range id = List.filter (fun q -> q >= fst ranges.(id) && q < snd ranges.(id)) in
    let atom_inits = Array.mapi (fun id _ -> in_range id initials) atoms in
    let atom_finals = Array.mapi (fun id _ -> in_range id finals) atoms in
    let states = List.init n Fun.id in
    let letters = Hashtbl.create 16 in
    List.iter
      (fun letter ->
        Hashtbl.replace letters letter (letter_tables ~n ~nw completed initials letter))
      alphabet;
    Some
      {
        n;
        nw;
        atoms;
        ranges;
        finals = Bits.of_list ~nw finals;
        atom_inits;
        atom_init_masks = Array.map (Bits.of_list ~nw) atom_inits;
        atom_finals;
        atom_final_masks = Array.map (Bits.of_list ~nw) atom_finals;
        states;
        all_states = Bits.of_list ~nw states;
        letters;
      }
  end

(* [dst]'s row at [drow] ∪= the Δa rows of the states in [word], whose
   lowest chunk is chunk group [g]: one table entry per nonzero chunk,
   stopping at the last one ([lsr] brings the sign bit down like any
   other bit) *)
let rec or_image ~nw lt word g dst drow =
  if word <> 0 then begin
    let v = word land ((1 lsl Bits.chunk_bits) - 1) in
    if v <> 0 then Bits.or_into ~nw (entry ~nw lt g v) (v * nw) dst drow;
    or_image ~nw lt (word lsr Bits.chunk_bits) (g + 1) dst drow
  end

(* [dst]'s relation at [doff] (all zero) becomes [src]'s relation at
   [soff] composed with Δa *)
let compose (aq : aq2) lt src soff dst doff =
  let nw = aq.nw in
  for q = 0 to aq.n - 1 do
    for j = 0 to nw - 1 do
      or_image ~nw lt src.(soff + (q * nw) + j) (j * Bits.chunks) dst (doff + (q * nw))
    done
  done

(* ------------------------------------------------------------------ *)
(* Tracker: achievable abstraction values of a left atom               *)
(* ------------------------------------------------------------------ *)

(* A tracker state is [len] words: the relations rel, plus, gap, infix
   and sufrel ([n] rows each, in this order), the preffinal row, the
   reached states of the atom's own NFA as a bit row, and a nonempty
   flag, set on every state but the start (the empty word).  A value is
   the prefix holding rel, plus, gap and infix.

   Every step is monotone: if state s is below s' (each relation and
   preffinal bit of s is in s', each atom-NFA state of s' is in s, and
   the flags are equal), then on every letter the successor of s is
   below that of s', s accepts whenever s' does, and the value of s is
   ⊆ that of s'. *)

(* the multiply carries bits upward only, so each word's high bits
   (bit 62 included) are folded down before it *)
let hash_words a off len =
  let h = ref len in
  for i = off to off + len - 1 do
    let x = a.(i) in
    h := (!h lxor x lxor (x lsr 29)) * 0x100000001b3
  done;
  (!h lxor (!h lsr 32)) land max_int

let rec equal_words a aoff b boff len =
  len = 0 || (a.(aoff) = b.(boff) && equal_words a (aoff + 1) b (boff + 1) (len - 1))

(* the words [k .. stop) of [a] at [aoff] are bitwise ⊆ those of [b] at
   [boff] *)
let rec subset_words a aoff b boff k stop =
  k = stop
  || (a.(aoff + k) land lnot b.(boff + k) = 0 && subset_words a aoff b boff (k + 1) stop)

module Words = Hashtbl.Make (struct
  type t = int array

  let equal a b = Array.length a = Array.length b && equal_words a 0 b 0 (Array.length a)

  let hash a = hash_words a 0 (Array.length a)
end)

(* The states a tracker has found, in discovery order, [len] words each
   in one arena, with an open-addressing index over them.  The arena
   and the index start with room for one state and double as needed.
   The breadth-first queue is the part of the arena past the state
   being expanded, and a witness is read back through
   [parent]/[letter]. *)
type states = {
  len : int;
  lbits : int;  (** offset of the atom-NFA states; the flag is the last word *)
  mutable arena : int array;
  mutable count : int;
  mutable parent : int array;  (** the state each was reached from *)
  mutable letter : Word.symbol array;  (** the letter it was reached by *)
  mutable slots : int array;  (** 0: empty; [i + 1]: state [i]; a power of two *)
}

(* the slot holding the state [a.(off ..)], or the empty slot for it *)
let rec probe st a off s =
  let i = st.slots.(s) in
  if i = 0 || equal_words st.arena ((i - 1) * st.len) a off st.len then s
  else probe st a off ((s + 1) land (Array.length st.slots - 1))

let slot_of st a off =
  probe st a off (hash_words a off st.len land (Array.length st.slots - 1))

let doubled a fill =
  let b = Array.make (2 * Array.length a) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* doubles the room for states *)
let grow st =
  st.arena <- doubled st.arena 0;
  st.parent <- doubled st.parent 0;
  st.letter <- doubled st.letter ""

let rehash st =
  st.slots <- Array.make (2 * Array.length st.slots) 0;
  for i = 0 to st.count - 1 do
    st.slots.(slot_of st st.arena (i * st.len)) <- i + 1
  done

(* some known state is below the state in [buf] *)
let dominated st buf =
  let len = st.len and lbits = st.lbits in
  let rec from i =
    i < st.count
    && begin
         let off = i * len in
         (st.arena.(off + len - 1) = buf.(len - 1)
         && subset_words buf 0 st.arena off lbits (len - 1)
         && subset_words st.arena off buf 0 0 lbits)
         || from (i + 1)
       end
  in
  from 0

(* Adds the state in [buf] unless it is known or, when [prune], unless a
   known state is below it; [true] when added. *)
let add_state ~prune st buf ~parent ~letter =
  let s = slot_of st buf 0 in
  st.slots.(s) = 0
  && (not (prune && dominated st buf))
  && begin
       if st.count = Array.length st.parent then grow st;
       Array.blit buf 0 st.arena (st.count * st.len) st.len;
       st.parent.(st.count) <- parent;
       st.letter.(st.count) <- letter;
       st.count <- st.count + 1;
       st.slots.(s) <- st.count;
       if 2 * st.count > Array.length st.slots then rehash st;
       true
     end

let rec word_to st i acc = if i = 0 then acc else word_to st st.parent.(i) (st.letter.(i) :: acc)

type abs_value = {
  v_rels : int array;  (** rel, plus, gap, infix: [n] rows each *)
  v_witness : Word.t;
}

(* offset of a relation within a value (and a tracker state) *)
let rel_offset (aq : aq2) kind =
  let r = aq.n * aq.nw in
  match kind with `Rel -> 0 | `Plus -> r | `Gap -> 2 * r | `Infix -> 3 * r

(* Abstraction values achievable by words of L(A), with witnesses, in
   the order the breadth-first search discovers them: all of them, or,
   when [prune], a subset holding every ⊆-minimal one.

   A breadth-first search over letters in a fixed order reaches each
   state first by its shortlex-least word, so each value's witness is
   its shortlex-least word.  [prune] drops a successor that a known
   state is below (forward subsumption, as in the antichain algorithms
   of De Wulf, Doyen, Henzinger and Raskin).  The path of a minimal
   value's witness w is never dropped: a known state d below the state
   reached by a prefix of w was reached by a shortlex-smaller word, and
   by the rest of w it reaches a value ⊆, hence equal to, the minimal
   one, which contradicts the choice of w.  So every minimal value
   comes with the same witness, in the same order, as without [prune]. *)
let achievable_values ~prune (aq : aq2) (lang : Regex.t) =
  let lnfa = Crpq.nfa lang in
  let n = aq.n and nw = aq.nw in
  let r = n * nw in
  let plus = r and gap = 2 * r and infix = 3 * r and sufrel = 4 * r in
  let preffinal = 5 * r in
  let lbits = preffinal + nw in
  let ln = lnfa.Nfa.nstates in
  let lw = Bits.words ln in
  let len = lbits + lw + 1 in
  (* per letter of L, in alphabet order: its A_Q2 tables and the atom
     NFA's transitions on it as [ln] rows *)
  let letters =
    List.filter_map
      (fun letter ->
        Option.map
          (fun lt ->
            let lrows = Array.make (ln * lw) 0 in
            Array.iteri
              (fun q out ->
                List.iter
                  (fun (x, q') -> if String.equal x letter then Bits.add lrows (q * lw) q')
                  out)
              lnfa.Nfa.delta;
            (letter, lt, lrows))
          (Hashtbl.find_opt aq.letters letter))
      (Regex.alphabet lang)
  in
  let lfinals = Bits.of_list ~nw:lw (Nfa.final_states lnfa) in
  let lnext = Array.make lw 0 in
  let buf = Array.make len 0 in
  (* [step a off lt lrows] writes into [buf] the successor, on the letter
     of [lt] and [lrows], of the state at [a.(off ..)]; [false] when the
     successor reaches no state of the atom NFA *)
  let step a off lt lrows =
    Array.fill lnext 0 lw 0;
    for q = 0 to ln - 1 do
      if Bits.mem a (off + lbits) q then Bits.or_into ~nw:lw lrows (q * lw) lnext 0
    done;
    (* [lnext] is nonempty *)
    Bits.intersects ~nw:lw lnext 0 lnext 0
    && begin
         let b = buf in
         Array.fill b 0 len 0;
         compose aq lt a off b 0;
         compose aq lt a (off + plus) b plus;
         compose aq lt a (off + gap) b gap;
         compose aq lt a (off + sufrel) b sufrel;
         (* infix' = infix ∪ sufrel *)
         Array.blit a (off + infix) b infix r;
         Bits.or_into ~nw:r a (off + sufrel) b infix;
         (* gap' ∪= preffinal × img_init *)
         for q = 0 to n - 1 do
           if Bits.mem a (off + preffinal) q then
             Bits.or_into ~nw lt.img_init 0 b (gap + (q * nw))
         done;
         Array.blit a (off + preffinal) b preffinal nw;
         if a.(off + len - 1) <> 0 then begin
           (* for every q whose rel row reaches a final state:
              plus' ∪= {q} × img_init and preffinal' ∋ q *)
           for q = 0 to n - 1 do
             if Bits.intersects ~nw a (off + (q * nw)) aq.finals 0 then begin
               Bits.or_into ~nw lt.img_init 0 b (plus + (q * nw));
               Bits.add b preffinal q
             end
           done;
           (* sufrel' ∪= Δa *)
           Bits.or_into ~nw:r lt.delta 0 b sufrel
         end;
         Array.blit lnext 0 b lbits lw;
         b.(len - 1) <- 1;
         true
       end
  in
  let st =
    {
      len;
      lbits;
      arena = Array.make len 0;
      count = 0;
      parent = [| 0 |];
      letter = [| "" |];
      slots = Array.make 2 0;
    }
  in
  for q = 0 to n - 1 do
    Bits.add buf (q * nw) q
  done;
  List.iter (Bits.add buf lbits) lnfa.Nfa.initials;
  ignore (add_state ~prune st buf ~parent:0 ~letter:"");
  let values = Words.create 1 in
  let found = ref [] in
  let i = ref 0 in
  while !i < st.count do
    Guard.checkpoint "qinj.tracker";
    Obs.Metrics.incr m_abstraction_states;
    if !i >= max_tracker_states then
      raise
        (Unsupported
           (Printf.sprintf "tracker exceeded %d states on language %s"
              max_tracker_states (Regex.to_string lang)));
    let off = !i * len in
    if st.arena.(off + len - 1) <> 0 && Bits.intersects ~nw:lw st.arena (off + lbits) lfinals 0
    then begin
      let key = Array.sub st.arena off (4 * r) in
      if not (Words.mem values key) then begin
        Words.replace values key ();
        found := { v_rels = key; v_witness = word_to st !i [] } :: !found
      end
    end;
    List.iter
      (fun (letter, lt, lrows) ->
        if step st.arena off lt lrows then
          ignore (add_state ~prune st buf ~parent:!i ~letter))
      letters;
    incr i
  done;
  List.rev !found

(* ------------------------------------------------------------------ *)
(* The tripled left-hand graph G                                       *)
(* ------------------------------------------------------------------ *)

type lhs = {
  d1 : Crpq.t;
  l_atoms : Crpq.atom array;
  var_of_node : string array;  (** names of var nodes; [""] for interiors *)
  node_of_var : (string, int) Hashtbl.t;
  nnodes : int;
  atom_path : int array array;  (** per atom: [|v0; i1; i2; v3|] *)
  gsucc : int list array;
  (* (u, v) -> (atom id, edge position 0..2) *)
  owner : (int * int, int * int) Hashtbl.t;
}

let build_lhs (d1 : Crpq.t) =
  let vars = Crpq.vars d1 in
  let node_of_var = Hashtbl.create 16 in
  List.iteri (fun i x -> Hashtbl.replace node_of_var x i) vars;
  let nvars = List.length vars in
  let l_atoms = Array.of_list d1.Crpq.atoms in
  let natoms = Array.length l_atoms in
  let nnodes = nvars + (2 * natoms) in
  let var_of_node = Array.make nnodes "" in
  List.iteri (fun i x -> var_of_node.(i) <- x) vars;
  let atom_path =
    Array.init natoms (fun i ->
        let a = l_atoms.(i) in
        [|
          Hashtbl.find node_of_var a.Crpq.src;
          nvars + (2 * i);
          nvars + (2 * i) + 1;
          Hashtbl.find node_of_var a.Crpq.dst;
        |])
  in
  let gsucc = Array.make nnodes [] in
  let owner = Hashtbl.create 32 in
  Array.iteri
    (fun i path ->
      for pos = 0 to 2 do
        let u = path.(pos) and v = path.(pos + 1) in
        gsucc.(u) <- v :: gsucc.(u);
        Hashtbl.replace owner (u, v) (i, pos)
      done)
    atom_path;
  { d1; l_atoms; var_of_node; node_of_var; nnodes; atom_path; gsucc; owner }

(* ------------------------------------------------------------------ *)
(* Morphism types                                                      *)
(* ------------------------------------------------------------------ *)

type rho = {
  r_atom : int;  (** RHS global atom id *)
  r_nodes : int array;  (** G nodes along the image path *)
}

type mtype = {
  m_paths : rho list;
  m_disjunct : int;
}

module Iset = Set.Make (Int)
module Smap = Map.Make (String)

(* A partial placement of a right disjunct into G: the node of each
   placed variable, the nodes taken (by a variable or a path interior)
   and the edges taken, edge (u, v) as [u * nnodes + v].  It is
   persistent, so a suspended enumeration resumes from it. *)
type placement = {
  p_vars : int Smap.t;
  p_used : Iset.t;
  p_edges : Iset.t;
}

(* The injective placements of disjunct [di] of the RHS into the tripled
   graph, enumerated as the sequence is forced.  Variables take the
   nodes in increasing order and paths follow [gsucc], depth first. *)
let morphism_types lhs (aq : aq2) ~lhs_free ~(d2 : Crpq.t) ~di =
  let rhs_atom_ids =
    List.filter_map Fun.id
      (Array.to_list
         (Array.mapi (fun id (dj, a) -> if dj = di then Some (id, a) else None) aq.atoms))
  in
  let bind y u p =
    { p with p_vars = Smap.add y u p.p_vars; p_used = Iset.add u p.p_used }
  in
  (* seed the free variables positionally *)
  let rec seed p frees targets =
    match frees, targets with
    | [], _ -> Some p
    | _ :: _, [] -> None
    | y :: frees, u :: targets -> (
      match Smap.find_opt y p.p_vars with
      | Some u' -> if u' = u then seed p frees targets else None
      | None -> if Iset.mem u p.p_used then None else seed (bind y u p) frees targets)
  in
  let with_var p y k =
    match Smap.find_opt y p.p_vars with
    | Some u -> k p u
    | None ->
      Seq.concat_map
        (fun u -> if Iset.mem u p.p_used then Seq.empty else k (bind y u p) u)
        (Seq.init lhs.nnodes Fun.id)
  in
  (* simple paths (cycles when src = dst) from u to t over untaken
     interior nodes and untaken edges, with the reversed node list.
     Edge-disjointness across the placed paths is required: after the
     Remark C.2 rewrite, distinct right-hand atoms always expand to
     distinct edges of E2, so their images cannot share an edge of G. *)
  let rec paths p u t rev_nodes =
    Seq.concat_map
      (fun v ->
        let e = (u * lhs.nnodes) + v in
        if Iset.mem e p.p_edges then Seq.empty
        else begin
          let p = { p with p_edges = Iset.add e p.p_edges } in
          if v = t then Seq.return (p, v :: rev_nodes)
          else if Iset.mem v p.p_used then Seq.empty
          else paths { p with p_used = Iset.add v p.p_used } v t (v :: rev_nodes)
        end)
      (List.to_seq lhs.gsucc.(u))
  in
  let rec place p atoms acc () =
    Guard.checkpoint "qinj.types";
    match atoms with
    | [] -> Seq.Cons ({ m_paths = List.rev acc; m_disjunct = di }, Seq.empty)
    | (id, (a : Crpq.atom)) :: rest ->
      with_var p a.Crpq.src
        (fun p s ->
          with_var p a.Crpq.dst (fun p t ->
              Seq.concat_map
                (fun (p, rev_nodes) ->
                  let nodes = Array.of_list (List.rev rev_nodes) in
                  place p rest ({ r_atom = id; r_nodes = nodes } :: acc))
                (paths p s t [ s ])))
        ()
  in
  let empty = { p_vars = Smap.empty; p_used = Iset.empty; p_edges = Iset.empty } in
  match seed empty d2.Crpq.free lhs_free with
  | None -> Seq.empty
  | Some p -> place p rhs_atom_ids []

(* ------------------------------------------------------------------ *)
(* Compatibility: coverage analysis and templates                      *)
(* ------------------------------------------------------------------ *)

type sexpr =
  | Lam of int  (** λ-variable id *)
  | Init of int  (** an initial state of RHS atom [id] *)
  | Fin of int  (** a final state of RHS atom [id] *)
  | Any  (** existentially quantified state of A_Q2 *)

type template = {
  t_latom : int;  (** LHS atom the element must belong to *)
  t_kind : [ `Rel | `Plus | `Gap | `Infix ];
  t_s1 : sexpr;
  t_s2 : sexpr;
}

exception Incompatible_structure

(* Analyze one morphism type into λ-variables and templates. *)
let templates_of_type lhs (aq : aq2) (m : mtype) =
  let lam_ids : (int * int, int) Hashtbl.t = Hashtbl.create 16 in
  let lam_domains = ref [] in
  let lam_count = ref 0 in
  let paths = Array.of_list m.m_paths in
  (* coverage per (lhs atom, edge position) *)
  let cover = Array.make_matrix (Array.length lhs.l_atoms) 3 None in
  Array.iteri
    (fun pi rho ->
      let k = Array.length rho.r_nodes - 1 in
      for j = 0 to k - 1 do
        let u = rho.r_nodes.(j) and v = rho.r_nodes.(j + 1) in
        match Hashtbl.find_opt lhs.owner (u, v) with
        | None -> raise Incompatible_structure
        | Some (ai, pos) -> cover.(ai).(pos) <- Some (pi, j)
      done)
    paths;
  let lam_of pi node =
    match Hashtbl.find_opt lam_ids (pi, node) with
    | Some id -> Lam id
    | None ->
      let id = !lam_count in
      incr lam_count;
      Hashtbl.replace lam_ids (pi, node) id;
      let lo, hi = aq.ranges.(paths.(pi).r_atom) in
      lam_domains := (id, (lo, hi)) :: !lam_domains;
      Lam id
  in
  (* state expression at the start of the edge (pi, j) *)
  let state_at_start pi j =
    if j = 0 then Init paths.(pi).r_atom
    else begin
      let node = paths.(pi).r_nodes.(j) in
      if String.equal lhs.var_of_node.(node) "" then raise Incompatible_structure
      else lam_of pi node
    end
  in
  let state_at_end pi j =
    let rho = paths.(pi) in
    if j + 1 = Array.length rho.r_nodes - 1 then Fin rho.r_atom
    else begin
      let node = rho.r_nodes.(j + 1) in
      if String.equal lhs.var_of_node.(node) "" then raise Incompatible_structure
      else lam_of pi node
    end
  in
  let templates = ref [] in
  let add_template t = templates := t :: !templates in
  Array.iteri
    (fun ai cov ->
      let c0 = cov.(0) and c1 = cov.(1) and c2 = cov.(2) in
      (* junction between adjacent covered edges: different steps of the
         same ρ that are not consecutive, or a ρ ending while another
         (necessarily the same self-loop ρ) starts *)
      let junction a b =
        match a, b with
        | Some (p1, j1), Some (p2, j2) ->
          if p1 = p2 && j2 = j1 + 1 then false
          else begin
            (* must be: ρ1 ends after edge a, ρ2 starts at edge b *)
            let last1 = j1 + 2 = Array.length paths.(p1).r_nodes in
            if last1 && j2 = 0 then true else raise Incompatible_structure
          end
        | _ -> false
      in
      match c0, c1, c2 with
      | None, None, None -> ()
      | Some (p, j), Some _, Some (p', j') when not (junction c0 c1 || junction c1 c2)
        ->
        (* full span, single segment *)
        add_template
          { t_latom = ai; t_kind = `Rel; t_s1 = state_at_start p j;
            t_s2 = state_at_end p' j' }
      | Some (p, j), Some _, Some (p', j') ->
        (* full span with one junction *)
        if junction c0 c1 && junction c1 c2 then raise Incompatible_structure;
        add_template
          { t_latom = ai; t_kind = `Plus; t_s1 = state_at_start p j;
            t_s2 = state_at_end p' j' }
      | Some (p, j), Some (p', j'), None ->
        if junction c0 c1 then raise Incompatible_structure;
        (* covered prefix ending at i2: ρ must end there *)
        if j' + 2 <> Array.length paths.(p').r_nodes then
          raise Incompatible_structure;
        add_template
          { t_latom = ai; t_kind = `Plus; t_s1 = state_at_start p j; t_s2 = Any }
      | Some (p, j), None, None ->
        if j + 2 <> Array.length paths.(p).r_nodes then
          raise Incompatible_structure;
        add_template
          { t_latom = ai; t_kind = `Plus; t_s1 = state_at_start p j; t_s2 = Any }
      | None, Some (_p, j), Some (p', j') ->
        if junction c1 c2 then raise Incompatible_structure;
        if j <> 0 then raise Incompatible_structure;
        add_template
          { t_latom = ai; t_kind = `Plus; t_s1 = Any; t_s2 = state_at_end p' j' }
      | None, None, Some (p, j) ->
        if j <> 0 then raise Incompatible_structure;
        add_template
          { t_latom = ai; t_kind = `Plus; t_s1 = Any; t_s2 = state_at_end p j }
      | None, Some (p, j), None ->
        if j <> 0 || j + 2 <> Array.length paths.(p).r_nodes then
          raise Incompatible_structure;
        add_template
          { t_latom = ai; t_kind = `Infix; t_s1 = Init paths.(p).r_atom;
            t_s2 = Fin paths.(p).r_atom }
      | Some (p, j), None, Some (p', j') ->
        (* gap: prefix segment must end its ρ, suffix segment must start
           its ρ *)
        if j + 2 <> Array.length paths.(p).r_nodes then
          raise Incompatible_structure;
        if j' <> 0 then raise Incompatible_structure;
        add_template
          { t_latom = ai; t_kind = `Gap; t_s1 = state_at_start p j;
            t_s2 = state_at_end p' j' })
    cover;
  (!templates, List.rev !lam_domains)

(* ------------------------------------------------------------------ *)
(* Compatibility of a type with an abstraction                         *)
(* ------------------------------------------------------------------ *)

(* A template with its state sets resolved against A_Q2, once per
   morphism type: it holds when some [q1] of [c_s1] has a [c_kind] row
   meeting [c_s2]. *)
type source = S_lam of int | S_states of int list

type target = T_lam of int | T_mask of int array

type check = {
  c_latom : int;
  c_off : int;  (** word offset of the relation within a value *)
  c_s1 : source;
  c_s2 : target;
}

type prepared = {
  doms : (int * int * int) array;  (** (λ id, lo, hi) in assignment order *)
  ready : check array array;
      (** [ready.(k)]: the templates whose λ-variables are all among the
          first [k] assigned (and not all among the first [k - 1]) *)
  lam : int array;  (** the λ labelling under construction, by id *)
}

let prepare (aq : aq2) (templates, lam_domains) =
  let doms = Array.of_list (List.map (fun (id, (lo, hi)) -> (id, lo, hi)) lam_domains) in
  let pos = Array.make (Array.length doms) 0 in
  Array.iteri (fun k (id, _, _) -> pos.(id) <- k + 1) doms;
  let step = function Lam i -> pos.(i) | Init _ | Fin _ | Any -> 0 in
  let ready = Array.make (Array.length doms + 1) [] in
  List.iter
    (fun t ->
      let c =
        {
          c_latom = t.t_latom;
          c_off = rel_offset aq t.t_kind;
          c_s1 =
            (match t.t_s1 with
            | Lam i -> S_lam i
            | Init id -> S_states aq.atom_inits.(id)
            | Fin id -> S_states aq.atom_finals.(id)
            | Any -> S_states aq.states);
          c_s2 =
            (match t.t_s2 with
            | Lam i -> T_lam i
            | Init id -> T_mask aq.atom_init_masks.(id)
            | Fin id -> T_mask aq.atom_final_masks.(id)
            | Any -> T_mask aq.all_states);
        }
      in
      let k = max (step t.t_s1) (step t.t_s2) in
      ready.(k) <- c :: ready.(k))
    templates;
  { doms; ready = Array.map Array.of_list ready; lam = Array.make (Array.length doms) 0 }

(* Compatibility runs once per (abstraction, morphism type) pair, so its
   helpers take everything as arguments rather than allocate closures. *)
let row_meets ~nw lam (m : int array) c q1 =
  let off = c.c_off + (q1 * nw) in
  match c.c_s2 with
  | T_lam i -> Bits.mem m off lam.(i)
  | T_mask mask -> Bits.intersects ~nw m off mask 0

let rec some_row_meets ~nw lam m c = function
  | [] -> false
  | q1 :: rest -> row_meets ~nw lam m c q1 || some_row_meets ~nw lam m c rest

let holds ~nw lam (alpha : abs_value array) c =
  let m = alpha.(c.c_latom).v_rels in
  match c.c_s1 with
  | S_lam i -> row_meets ~nw lam m c lam.(i)
  | S_states qs -> some_row_meets ~nw lam m c qs

let rec all_hold ~nw lam alpha checks i =
  i = Array.length checks
  || (holds ~nw lam alpha checks.(i) && all_hold ~nw lam alpha checks (i + 1))

(* Is some λ labelling compatible with [alpha]?  Each template is
   checked once, as soon as its last λ-variable is assigned. *)
let rec assign ~nw alpha p k =
  all_hold ~nw p.lam alpha p.ready.(k) 0
  && (k = Array.length p.doms
     ||
     let _, lo, _ = p.doms.(k) in
     try_label ~nw alpha p k lo)

and try_label ~nw alpha p k q =
  let id, _, hi = p.doms.(k) in
  q < hi
  && begin
       p.lam.(id) <- q;
       assign ~nw alpha p (k + 1) || try_label ~nw alpha p k (q + 1)
     end

let compatible (aq : aq2) alpha p = assign ~nw:aq.nw alpha p 0

(* [compatible] only asks that rows meet, so it is monotone in the bits
   of a value: a type compatible with an abstraction stays compatible
   when one of its values grows.  Every value contains a ⊆-minimal one,
   so the product of the minimal values refutes whenever the full
   product does. *)
let subset u v = subset_words u 0 v 0 0 (Array.length u)

(* the ⊆-minimal values of [vs] (which are distinct), in their order *)
let minimal_values vs =
  let all = Array.of_list vs in
  Array.of_list
    (List.filter
       (fun v -> not (Array.exists (fun u -> u != v && subset u.v_rels v.v_rels) all))
       vs)

(* ------------------------------------------------------------------ *)
(* Main decision procedure                                             *)
(* ------------------------------------------------------------------ *)

let shortest_expansion (d1 : Crpq.t) =
  let words =
    List.map
      (fun (a : Crpq.atom) ->
        match Regex.shortest_word (Regex.remove_eps a.Crpq.lang) with
        | Some w -> w
        | None -> raise (Unsupported "empty language in satisfiable disjunct"))
      d1.Crpq.atoms
  in
  Expansion.expand_unchecked d1 (Array.of_list words)

let counterexample_holds rhs_union (e : Expansion.expanded) =
  let g, tuple = Expansion.to_graph e in
  List.for_all (fun q2 -> not (Eval.check Semantics.Q_inj q2 g tuple)) rhs_union

(* How a left disjunct escapes the right union: by an expansion already
   evaluated against it, or by an abstraction with no compatible
   morphism type, given by its witness words. *)
type refutation =
  | Evaluated of Expansion.expanded
  | Abstraction of Word.t array

(* The rewritten left and right disjuncts of [lhs_union ⊆ rhs_union],
   and A_Q2 over their common alphabet ([None] without right atoms). *)
let rewrite lhs_union rhs_union =
  let arity =
    match lhs_union @ rhs_union with
    | [] -> invalid_arg "Containment_qinj.decide_union: empty union"
    | q :: _ -> List.length q.Crpq.free
  in
  List.iter
    (fun (q : Crpq.t) ->
      if List.length q.Crpq.free <> arity then
        invalid_arg "Containment_qinj.decide: queries of different arities")
    (lhs_union @ rhs_union);
  let lhs_disjuncts =
    List.concat_map
      (fun q1 ->
        List.concat_map split_parallel_letters (Crpq.epsilon_free_disjuncts q1))
      lhs_union
  in
  let rhs_disjuncts =
    List.concat_map
      (fun q2 ->
        Crpq.epsilon_free_disjuncts q2
        |> List.map normalize_concat
        |> List.concat_map split_parallel_letters
        |> List.filter (fun d -> not (Crpq.has_empty_language d)))
      rhs_union
  in
  let alphabet =
    List.sort_uniq String.compare
      (List.concat_map Crpq.alphabet (lhs_disjuncts @ rhs_disjuncts))
  in
  (lhs_disjuncts, rhs_disjuncts, build_aq2 ~alphabet rhs_disjuncts)

(* The first left disjunct that escapes the right union, with how, and
   the search-space sizes.  Each disjunct's abstractions range over the
   product of the ⊆-minimal values, or of all values when [minimal] is
   false (the reference search). *)
let first_refutation ~minimal lhs_union rhs_union =
  let lhs_disjuncts, rhs_disjuncts, aq2_opt = rewrite lhs_union rhs_union in
  let abstractions_checked = ref 0 in
  let ntypes = ref 0 in
  (* a value array depends only on A_Q2 and the language, so the tracker
     runs once per language for every left atom of every left disjunct:
     pruned and reduced to the minimal values, or exhaustive for the
     reference search *)
  let values = Hashtbl.create 16 in
  let values_of aq lang =
    match Hashtbl.find_opt values lang with
    | Some vs -> vs
    | None ->
      let vs =
        if minimal then minimal_values (achievable_values ~prune:true aq lang)
        else Array.of_list (achievable_values ~prune:false aq lang)
      in
      Hashtbl.replace values lang vs;
      vs
  in
  let refute (d1 : Crpq.t) =
    if Crpq.has_empty_language d1 then None
    else if d1.Crpq.atoms = [] then begin
      let e = Expansion.expand_unchecked d1 [||] in
      if counterexample_holds rhs_union e then Some (Evaluated e) else None
    end
    else begin
      match aq2_opt with
      | None ->
        (* RHS has no satisfiable disjunct with atoms: Q2 can only be
           satisfied by an atomless disjunct; test the shortest expansion
           directly (its verdict is representative only if none exists,
           otherwise evaluation decides). *)
        let e = shortest_expansion d1 in
        if counterexample_holds rhs_union e then Some (Evaluated e) else None
      | Some aq ->
        let lhs = build_lhs d1 in
        let values_per_atom =
          Array.map (fun (a : Crpq.atom) -> values_of aq a.Crpq.lang) lhs.l_atoms
        in
        if Array.exists (fun vs -> Array.length vs = 0) values_per_atom then
          None (* some language empty: disjunct unsatisfiable *)
        else begin
          let lhs_free =
            List.map (fun x -> Hashtbl.find lhs.node_of_var x) d1.Crpq.free
          in
          (* the morphism types, analyzed into templates as the search
             first asks for them and kept for the next abstractions *)
          let types =
            List.to_seq (List.mapi (fun di d2 -> (di, d2)) rhs_disjuncts)
            |> Seq.concat_map (fun (di, d2) -> morphism_types lhs aq ~lhs_free ~d2 ~di)
            |> Seq.filter_map (fun m ->
                   incr ntypes;
                   Obs.Metrics.incr m_morphism_types;
                   if !ntypes > max_types then
                     raise
                       (Unsupported
                          (Printf.sprintf "more than %d morphism types" max_types));
                   match templates_of_type lhs aq m with
                   | analysis -> Some (prepare aq analysis)
                   | exception Incompatible_structure -> None)
            |> Seq.memoize
          in
          (* the first abstraction of the product with no compatible type *)
          let natoms = Array.length lhs.l_atoms in
          let alpha = Array.make natoms values_per_atom.(0).(0) in
          let rec first ai =
            Guard.checkpoint "qinj.abstractions";
            if ai = natoms then begin
              incr abstractions_checked;
              Obs.Metrics.incr m_abstractions_checked;
              if !abstractions_checked > max_abstractions then
                raise
                  (Unsupported
                     (Printf.sprintf "more than %d abstractions" max_abstractions));
              if Seq.exists (compatible aq alpha) types then None
              else Some (Abstraction (Array.map (fun v -> v.v_witness) alpha))
            end
            else begin
              let vs = values_per_atom.(ai) in
              let rec try_value k =
                if k = Array.length vs then None
                else begin
                  alpha.(ai) <- vs.(k);
                  match first (ai + 1) with
                  | None -> try_value (k + 1)
                  | found -> found
                end
              in
              try_value 0
            end
          in
          first 0
        end
    end
  in
  let rec run = function
    | [] -> None
    | d1 :: rest -> (
      match refute d1 with Some r -> Some (d1, r) | None -> run rest)
  in
  let refuted = run lhs_disjuncts in
  ( refuted,
    {
      lhs_disjuncts = List.length lhs_disjuncts;
      rhs_disjuncts = List.length rhs_disjuncts;
      abstractions_checked = !abstractions_checked;
      morphism_types = !ntypes;
      aq2_states = (match aq2_opt with Some aq -> aq.n | None -> 0);
    } )

let traced f = if Obs.Trace.enabled () then Obs.Trace.span "qinj.decide" f else f ()

let decide_search ~minimal lhs_union rhs_union =
  traced (fun () ->
      let refuted, stats = first_refutation ~minimal lhs_union rhs_union in
      let result =
        match refuted with
        | None -> Qinj_contained
        | Some (_, Evaluated e) -> Qinj_not_contained e
        | Some (d1, Abstraction words) ->
          let e = Expansion.expand_unchecked d1 words in
          if counterexample_holds rhs_union e then Qinj_not_contained e
          else
            raise
              (Unsupported "internal: abstraction counterexample failed re-verification")
      in
      (result, stats))

let decide_union lhs rhs = fst (decide_search ~minimal:true lhs rhs)

let certify_union lhs_union rhs_union =
  traced (fun () ->
      Option.is_none (fst (first_refutation ~minimal:true lhs_union rhs_union)))

let decide_with_stats q1 q2 = decide_search ~minimal:true [ q1 ] [ q2 ]

let decide q1 q2 = fst (decide_with_stats q1 q2)

let decide_full_search q1 q2 = decide_search ~minimal:false [ q1 ] [ q2 ]

let tracker_values ~prune q1 q2 =
  match rewrite [ q1 ] [ q2 ] with
  | _, _, None -> []
  | lhs_disjuncts, _, Some aq ->
    List.concat_map (fun (d : Crpq.t) -> d.Crpq.atoms) lhs_disjuncts
    |> List.map (fun (a : Crpq.atom) -> a.Crpq.lang)
    |> List.sort_uniq Stdlib.compare
    |> List.map (fun lang ->
           ( lang,
             List.map
               (fun v -> (v.v_rels, v.v_witness))
               (achievable_values ~prune aq lang) ))
