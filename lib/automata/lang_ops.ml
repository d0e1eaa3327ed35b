(* Brzozowski–McCluskey state elimination over a generalized NFA whose
   transitions carry regular expressions. *)
let of_nfa (a : Nfa.t) =
  let a = Nfa.trim a in
  if a.Nfa.nstates = 0 || a.Nfa.initials = [] then Regex.empty
  else begin
    let n = a.Nfa.nstates in
    (* generalized automaton with fresh initial [n] and final [n+1] *)
    let size = n + 2 in
    let start = n and finish = n + 1 in
    let edge = Array.make_matrix size size Regex.empty in
    let add p q r = edge.(p).(q) <- Regex.alt edge.(p).(q) r in
    Array.iteri
      (fun p outs -> List.iter (fun (x, q) -> add p q (Regex.sym x)) outs)
      a.Nfa.delta;
    List.iter (fun q -> add start q Regex.eps) a.Nfa.initials;
    Array.iteri (fun q f -> if f then add q finish Regex.eps) a.Nfa.finals;
    (* eliminate original states one by one *)
    for k = 0 to n - 1 do
      let loop = Regex.star edge.(k).(k) in
      for p = 0 to size - 1 do
        if p <> k && not (Regex.is_empty_lang edge.(p).(k)) then
          for q = 0 to size - 1 do
            if q <> k && not (Regex.is_empty_lang edge.(k).(q)) then
              add p q (Regex.seq_list [ edge.(p).(k); loop; edge.(k).(q) ])
          done
      done;
      for p = 0 to size - 1 do
        edge.(p).(k) <- Regex.empty;
        edge.(k).(p) <- Regex.empty
      done
    done;
    edge.(start).(finish)
  end

let nfa_of_dfa (d : Dfa.t) =
  let delta =
    Array.init d.Dfa.nstates (fun q ->
        Array.to_list (Array.mapi (fun i q' -> (d.Dfa.alphabet.(i), q')) d.Dfa.next.(q)))
  in
  {
    Nfa.nstates = d.Dfa.nstates;
    initials = [ d.Dfa.start ];
    finals = d.Dfa.finals;
    delta;
  }
