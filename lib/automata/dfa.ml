type t = {
  alphabet : Word.symbol array;
  nstates : int;
  start : int;
  finals : bool array;
  next : int array array;
}

let of_nfa ?alphabet nfa =
  let alpha =
    Array.of_list
      (match alphabet with
      | Some a -> List.sort_uniq String.compare a
      | None -> Nfa.alphabet nfa)
  in
  (* canonical key of a state set *)
  let key s = String.concat "," (List.map string_of_int s) in
  let table = Hashtbl.create 64 in
  let states = ref [] in
  let count = ref 0 in
  let intern s =
    let k = key s in
    match Hashtbl.find_opt table k with
    | Some id -> id
    | None ->
      let id = !count in
      incr count;
      Hashtbl.add table k id;
      states := (id, s) :: !states;
      id
  in
  let start_set = List.sort_uniq Stdlib.compare nfa.Nfa.initials in
  let start = intern start_set in
  let transitions = ref [] in
  let work = Queue.create () in
  Queue.add (start, start_set) work;
  let processed = Hashtbl.create 64 in
  while not (Queue.is_empty work) do
    Guard.checkpoint "dfa.determinize";
    let id, s = Queue.pop work in
    if not (Hashtbl.mem processed id) then begin
      Hashtbl.add processed id ();
      let row =
        Array.map
          (fun x ->
            let s' = Nfa.next_set nfa s x in
            let known = Hashtbl.mem table (key s') in
            let id' = intern s' in
            if not known then Queue.add (id', s') work;
            id')
          alpha
      in
      transitions := (id, row) :: !transitions
    end
  done;
  let n = !count in
  let next = Array.make n [||] in
  List.iter (fun (id, row) -> next.(id) <- row) !transitions;
  let finals = Array.make n false in
  List.iter
    (fun (id, s) -> finals.(id) <- List.exists (Nfa.is_final nfa) s)
    !states;
  { alphabet = alpha; nstates = n; start; finals; next }

let sym_index d x =
  let rec go i =
    if i >= Array.length d.alphabet then None
    else if String.equal d.alphabet.(i) x then Some i
    else go (i + 1)
  in
  go 0

let accepts d w =
  let rec go q = function
    | [] -> d.finals.(q)
    | x :: rest -> begin
      match sym_index d x with
      | None -> false
      | Some i -> go d.next.(q).(i) rest
    end
  in
  go d.start w

let complement d = { d with finals = Array.map not d.finals }

let align_alphabets d1 d2 =
  if d1.alphabet = d2.alphabet then (d1, d2)
  else invalid_arg "Dfa: alphabets differ; determinize over a common alphabet"

let intersect d1 d2 =
  let d1, d2 = align_alphabets d1 d2 in
  let nsym = Array.length d1.alphabet in
  let code p q = (p * d2.nstates) + q in
  let n = d1.nstates * d2.nstates in
  let next =
    Array.init n (fun s ->
        Guard.checkpoint "dfa.product";
        let p = s / d2.nstates and q = s mod d2.nstates in
        Array.init nsym (fun i -> code d1.next.(p).(i) d2.next.(q).(i)))
  in
  let finals =
    Array.init n (fun s ->
        let p = s / d2.nstates and q = s mod d2.nstates in
        d1.finals.(p) && d2.finals.(q))
  in
  {
    alphabet = d1.alphabet;
    nstates = n;
    start = code d1.start d2.start;
    finals;
    next;
  }

let is_empty d =
  let seen = Array.make d.nstates false in
  let found = ref false in
  let rec go q =
    if (not seen.(q)) && not !found then begin
      seen.(q) <- true;
      if d.finals.(q) then found := true else Array.iter go d.next.(q)
    end
  in
  go d.start;
  not !found

let shortest_word d =
  let pred = Array.make d.nstates None in
  let seen = Array.make d.nstates false in
  let q = Queue.create () in
  seen.(d.start) <- true;
  Queue.add d.start q;
  let goal = ref None in
  while (not (Queue.is_empty q)) && !goal = None do
    let s = Queue.pop q in
    if d.finals.(s) then goal := Some s
    else
      Array.iteri
        (fun i s' ->
          if not seen.(s') then begin
            seen.(s') <- true;
            pred.(s') <- Some (s, d.alphabet.(i));
            Queue.add s' q
          end)
        d.next.(s)
  done;
  match !goal with
  | None -> None
  | Some s ->
    let rec build s acc =
      match pred.(s) with
      | None -> acc
      | Some (p, x) -> build p (x :: acc)
    in
    Some (build s [])

let minimize d =
  (* Moore's algorithm: refine the partition {F, Q\F} until stable. *)
  let cls = Array.init d.nstates (fun q -> if d.finals.(q) then 1 else 0) in
  let nsym = Array.length d.alphabet in
  let changed = ref true in
  while !changed do
    changed := false;
    let signature q =
      (cls.(q), Array.to_list (Array.init nsym (fun i -> cls.(d.next.(q).(i)))))
    in
    let table = Hashtbl.create 64 in
    let fresh = ref 0 in
    let newcls =
      Array.init d.nstates (fun q ->
          let s = signature q in
          match Hashtbl.find_opt table s with
          | Some c -> c
          | None ->
            let c = !fresh in
            incr fresh;
            Hashtbl.add table s c;
            c)
    in
    if newcls <> cls then begin
      Array.blit newcls 0 cls 0 d.nstates;
      changed := true
    end
  done;
  let n = 1 + Array.fold_left max 0 cls in
  let next = Array.make n [||] in
  let finals = Array.make n false in
  for q = 0 to d.nstates - 1 do
    next.(cls.(q)) <- Array.init nsym (fun i -> cls.(d.next.(q).(i)));
    if d.finals.(q) then finals.(cls.(q)) <- true
  done;
  { alphabet = d.alphabet; nstates = n; start = cls.(d.start); finals; next }

let included a b =
  let alpha = List.sort_uniq String.compare (Nfa.alphabet a @ Nfa.alphabet b) in
  let da = of_nfa ~alphabet:alpha a in
  let db = of_nfa ~alphabet:alpha b in
  is_empty (intersect da (complement db))

let equivalent a b = included a b && included b a

let regex_included r s = included (Nfa.of_regex r) (Nfa.of_regex s)

let regex_equivalent r s = regex_included r s && regex_included s r
