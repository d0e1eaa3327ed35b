let is_satisfiable q = Crpq.epsilon_free_disjuncts q <> []

let prune_languages (q : Crpq.t) =
  let simplify lang =
    if Regex.is_empty_lang lang then Regex.empty
    else begin
      (* try the state-eliminated regex of the minimal DFA; keep the
         smaller of the two *)
      let alphabet = Regex.alphabet lang in
      match alphabet with
      | [] -> if Regex.nullable lang then Regex.eps else Regex.empty
      | _ ->
        let candidate =
          Lang_ops.of_nfa
            (Lang_ops.nfa_of_dfa
               (Dfa.minimize (Dfa.of_nfa ~alphabet (Nfa.of_regex lang))))
        in
        if Regex.size candidate < Regex.size lang then candidate else lang
    end
  in
  Crpq.make ~free:q.Crpq.free
    (List.map (fun (a : Crpq.atom) -> { a with Crpq.lang = simplify a.Crpq.lang }) q.Crpq.atoms)
