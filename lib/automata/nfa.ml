(* Search telemetry (no-op unless [Obs.Metrics] is enabled): the
   emptiness search is where automata work grows with the state space,
   so its size is the measurable quantity. *)
let m_emptiness_states = Obs.Metrics.counter "nfa.emptiness_states"

type state = int

type t = {
  nstates : int;
  initials : state list;
  finals : bool array;
  delta : (Word.symbol * state) list array;
}

module IntSet = Set.Make (Int)

let dedup_sorted l = List.sort_uniq Stdlib.compare l

(* ------------------------------------------------------------------ *)
(* Thompson construction with epsilon transitions, then elimination.   *)
(* ------------------------------------------------------------------ *)

type builder = {
  mutable count : int;
  mutable sym_edges : (state * Word.symbol * state) list;
  mutable eps_edges : (state * state) list;
}

let fresh b =
  let q = b.count in
  b.count <- b.count + 1;
  q

let trim_unreachable a =
  (* drop states unreachable from the initial states (keeps semantics) *)
  let reach = Array.make a.nstates false in
  let rec go q =
    if not reach.(q) then begin
      reach.(q) <- true;
      List.iter (fun (_, q') -> go q') a.delta.(q)
    end
  in
  List.iter go a.initials;
  let remap = Array.make a.nstates (-1) in
  let count = ref 0 in
  Array.iteri
    (fun q r ->
      if r then begin
        remap.(q) <- !count;
        incr count
      end)
    reach;
  let n = !count in
  if n = a.nstates then a
  else begin
    let finals = Array.make (max n 1) false in
    let delta = Array.make (max n 1) [] in
    Array.iteri
      (fun q r ->
        if r then begin
          finals.(remap.(q)) <- a.finals.(q);
          delta.(remap.(q)) <-
            List.filter_map
              (fun (x, q') -> if reach.(q') then Some (x, remap.(q')) else None)
              a.delta.(q)
        end)
      reach;
    {
      nstates = max n 1;
      initials =
        List.filter_map (fun q -> if reach.(q) then Some remap.(q) else None) a.initials;
      finals;
      delta;
    }
  end

let of_regex_uncached r =
  let b = { count = 0; sym_edges = []; eps_edges = [] } in
  let add_sym p a q = b.sym_edges <- (p, a, q) :: b.sym_edges in
  let add_eps p q = b.eps_edges <- (p, q) :: b.eps_edges in
  (* Returns (entry, exit) of a fragment. *)
  let rec build = function
    | Regex.Empty ->
      let i = fresh b and f = fresh b in
      (i, f)
    | Regex.Eps ->
      let i = fresh b and f = fresh b in
      add_eps i f;
      (i, f)
    | Regex.Sym a ->
      let i = fresh b and f = fresh b in
      add_sym i a f;
      (i, f)
    | Regex.Seq (r, s) ->
      let i1, f1 = build r in
      let i2, f2 = build s in
      add_eps f1 i2;
      (i1, f2)
    | Regex.Alt (r, s) ->
      let i = fresh b and f = fresh b in
      let i1, f1 = build r in
      let i2, f2 = build s in
      add_eps i i1;
      add_eps i i2;
      add_eps f1 f;
      add_eps f2 f;
      (i, f)
    | Regex.Star r ->
      let i = fresh b and f = fresh b in
      let i1, f1 = build r in
      add_eps i i1;
      add_eps i f;
      add_eps f1 i1;
      add_eps f1 f;
      (i, f)
    | Regex.Plus r ->
      let i1, f1 = build r in
      add_eps f1 i1;
      (i1, f1)
    | Regex.Opt r ->
      let i = fresh b and f = fresh b in
      let i1, f1 = build r in
      add_eps i i1;
      add_eps i f;
      add_eps f1 f;
      (i, f)
  in
  let entry, exit = build r in
  let n = b.count in
  (* epsilon closure *)
  let eps_succ = Array.make n [] in
  List.iter (fun (p, q) -> eps_succ.(p) <- q :: eps_succ.(p)) b.eps_edges;
  let eclose q0 =
    let seen = Array.make n false in
    let rec go q =
      if not seen.(q) then begin
        seen.(q) <- true;
        List.iter go eps_succ.(q)
      end
    in
    go q0;
    seen
  in
  let closures = Array.init n eclose in
  let sym_out = Array.make n [] in
  List.iter (fun (p, a, q) -> sym_out.(p) <- (a, q) :: sym_out.(p)) b.sym_edges;
  let delta =
    Array.init n (fun q ->
        let acc = ref [] in
        Array.iteri
          (fun p in_closure -> if in_closure then acc := sym_out.(p) @ !acc)
          closures.(q);
        dedup_sorted !acc)
  in
  let finals = Array.init n (fun q -> closures.(q).(exit)) in
  trim_unreachable { nstates = n; initials = [ entry ]; finals; delta }

(* NFAs are plain immutable data (no caller mutates [finals]/[delta]),
   so the memo hands every caller the same shared automaton. *)
module Regex_memo = Cache.Memo (struct
  type t = Regex.t

  let equal = ( = )
  let hash = Hashtbl.hash
end)

let of_regex_memo = Regex_memo.create ~cap:1024 "nfa.of_regex"

let of_regex r =
  Regex_memo.find_or_add of_regex_memo r (fun () -> of_regex_uncached r)

let alphabet a =
  let acc = Hashtbl.create 16 in
  Array.iter (List.iter (fun (x, _) -> Hashtbl.replace acc x ())) a.delta;
  List.sort String.compare (Hashtbl.fold (fun x () l -> x :: l) acc [])

let is_final a q = a.finals.(q)

let final_states a =
  let acc = ref [] in
  Array.iteri (fun q f -> if f then acc := q :: !acc) a.finals;
  List.rev !acc

let next_set a s x =
  let acc = ref IntSet.empty in
  List.iter
    (fun q ->
      List.iter
        (fun (y, q') -> if String.equal x y then acc := IntSet.add q' !acc)
        a.delta.(q))
    s;
  IntSet.elements !acc

let accepts a w =
  let s = List.fold_left (next_set a) a.initials w in
  List.exists (is_final a) s

let accepts_eps a = List.exists (is_final a) a.initials

let is_empty a =
  let seen = Array.make (max a.nstates 1) false in
  let found = ref false in
  let rec go q =
    if not seen.(q) then begin
      seen.(q) <- true;
      Obs.Metrics.incr m_emptiness_states;
      if a.finals.(q) then found := true;
      if not !found then List.iter (fun (_, q') -> go q') a.delta.(q)
    end
  in
  List.iter go a.initials;
  not !found

let shortest_word a =
  (* BFS over states, remembering one shortest word per state. *)
  let word_to = Array.make (max a.nstates 1) None in
  let q = Queue.create () in
  List.iter
    (fun s ->
      if word_to.(s) = None then begin
        word_to.(s) <- Some [];
        Queue.add s q
      end)
    a.initials;
  let result = ref None in
  (try
     while not (Queue.is_empty q) do
       let s = Queue.pop q in
       let w = Option.get word_to.(s) in
       if a.finals.(s) then begin
         result := Some (List.rev w);
         raise Exit
       end;
       List.iter
         (fun (x, s') ->
           if word_to.(s') = None then begin
             word_to.(s') <- Some (x :: w);
             Queue.add s' q
           end)
         a.delta.(s)
     done
   with Exit -> ());
  !result

let enumerate ~max_len a =
  (* BFS over (word, state-set) pairs; state-sets deduplicate suffⅸ
     behaviour so the frontier stays small for small bounds. *)
  let module WS = Set.Make (struct
    type t = Word.t

    let compare = Word.compare
  end) in
  let results = ref WS.empty in
  let rec go w s len =
    if List.exists (is_final a) s then results := WS.add (List.rev w) !results;
    if len < max_len then begin
      let letters = Hashtbl.create 8 in
      List.iter
        (fun q -> List.iter (fun (x, _) -> Hashtbl.replace letters x ()) a.delta.(q))
        s;
      Hashtbl.iter (fun x () -> go (x :: w) (next_set a s x) (len + 1)) letters
    end
  in
  go [] a.initials 0;
  let cmp w1 w2 =
    let c = Stdlib.compare (List.length w1) (List.length w2) in
    if c <> 0 then c else Word.compare w1 w2
  in
  List.sort cmp (WS.elements !results)

let union a b =
  let off = a.nstates in
  let n = a.nstates + b.nstates in
  let finals = Array.make n false in
  Array.blit a.finals 0 finals 0 a.nstates;
  Array.blit b.finals 0 finals off b.nstates;
  let delta = Array.make n [] in
  Array.blit a.delta 0 delta 0 a.nstates;
  for q = 0 to b.nstates - 1 do
    delta.(off + q) <- List.map (fun (x, q') -> (x, off + q')) b.delta.(q)
  done;
  {
    nstates = n;
    initials = a.initials @ List.map (fun q -> off + q) b.initials;
    finals;
    delta;
  }

let union_list autos =
  match autos with
  | [] -> invalid_arg "Nfa.union_list: empty"
  | first :: rest ->
    let offsets = Array.make (List.length autos) 0 in
    let rec go i acc = function
      | [] -> acc
      | a :: tl ->
        offsets.(i) <- acc.nstates;
        go (i + 1) (union acc a) tl
    in
    (go 1 first rest, offsets)

let reverse a =
  let delta = Array.make a.nstates [] in
  Array.iteri
    (fun q out -> List.iter (fun (x, q') -> delta.(q') <- (x, q) :: delta.(q')) out)
    a.delta;
  let finals = Array.make a.nstates false in
  List.iter (fun q -> finals.(q) <- true) a.initials;
  { nstates = a.nstates; initials = final_states a; finals; delta }

let trim a =
  let fwd = Array.make (max a.nstates 1) false in
  let rec go q =
    if not fwd.(q) then begin
      fwd.(q) <- true;
      List.iter (fun (_, q') -> go q') a.delta.(q)
    end
  in
  List.iter go a.initials;
  let rev = reverse a in
  let bwd = Array.make (max a.nstates 1) false in
  let rec gob q =
    if not bwd.(q) then begin
      bwd.(q) <- true;
      List.iter (fun (_, q') -> gob q') rev.delta.(q)
    end
  in
  List.iter gob rev.initials;
  let keep = Array.init a.nstates (fun q -> fwd.(q) && bwd.(q)) in
  let remap = Array.make a.nstates (-1) in
  let count = ref 0 in
  Array.iteri
    (fun q k ->
      if k then begin
        remap.(q) <- !count;
        incr count
      end)
    keep;
  let n = max !count 0 in
  let finals = Array.make (max n 1) false in
  let delta = Array.make (max n 1) [] in
  Array.iteri
    (fun q k ->
      if k then begin
        finals.(remap.(q)) <- a.finals.(q);
        delta.(remap.(q)) <-
          List.filter_map
            (fun (x, q') -> if keep.(q') then Some (x, remap.(q')) else None)
            a.delta.(q)
      end)
    keep;
  {
    nstates = n;
    initials =
      List.filter_map (fun q -> if keep.(q) then Some remap.(q) else None) a.initials;
    finals = (if n = 0 then [||] else Array.sub finals 0 n);
    delta = (if n = 0 then [||] else Array.sub delta 0 n);
  }

let complete ~alphabet a =
  let sink = a.nstates in
  let n = a.nstates + 1 in
  let finals = Array.make n false in
  Array.blit a.finals 0 finals 0 a.nstates;
  let delta = Array.make n [] in
  Array.blit a.delta 0 delta 0 a.nstates;
  for q = 0 to a.nstates - 1 do
    let missing =
      List.filter
        (fun x -> not (List.exists (fun (y, _) -> String.equal x y) delta.(q)))
        alphabet
    in
    delta.(q) <- List.map (fun x -> (x, sink)) missing @ delta.(q)
  done;
  delta.(sink) <- List.map (fun x -> (x, sink)) alphabet;
  { nstates = n; initials = a.initials; finals; delta }

let co_complete ~alphabet a =
  let source = a.nstates in
  let n = a.nstates + 1 in
  let finals = Array.make n false in
  Array.blit a.finals 0 finals 0 a.nstates;
  let delta = Array.make n [] in
  Array.blit a.delta 0 delta 0 a.nstates;
  (* which (symbol, state) pairs lack an incoming edge *)
  let has_in = Hashtbl.create 64 in
  Array.iter (List.iter (fun (x, q') -> Hashtbl.replace has_in (x, q') ())) a.delta;
  let src_out = ref (List.map (fun x -> (x, source)) alphabet) in
  for q = 0 to a.nstates - 1 do
    List.iter
      (fun x -> if not (Hashtbl.mem has_in (x, q)) then src_out := (x, q) :: !src_out)
      alphabet
  done;
  delta.(source) <- !src_out;
  { nstates = n; initials = a.initials; finals; delta }

let pp ppf a =
  Format.fprintf ppf "@[<v>nfa with %d states, initials %a, finals %a@,"
    a.nstates
    (Format.pp_print_list ~pp_sep:Format.pp_print_space Format.pp_print_int)
    a.initials
    (Format.pp_print_list ~pp_sep:Format.pp_print_space Format.pp_print_int)
    (final_states a);
  Array.iteri
    (fun q out ->
      List.iter (fun (x, q') -> Format.fprintf ppf "%d -%s-> %d@," q x q') out)
    a.delta;
  Format.fprintf ppf "@]"
