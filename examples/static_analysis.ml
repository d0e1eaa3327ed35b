(* A static-analysis session: unions, equivalence, minimization and
   two-way navigation working together.

   Run with:  dune exec examples/static_analysis.exe *)

let header s = Format.printf "@.== %s ==@." s

let () =
  header "Union reasoning (UCRPQ)";
  (* a recursive reachability query, and its parity-split rewriting *)
  let whole = Ucrpq.make [ Crpq.parse "Q(x, y) :- x -[a+]-> y" ] in
  let split =
    Ucrpq.make
      [
        Crpq.parse "Q(x, y) :- x -[(aa)+]-> y";
        Crpq.parse "Q(x, y) :- x -[a(aa)*]-> y";
      ]
  in
  Format.printf "whole: %s@." (Ucrpq.to_string whole);
  Format.printf "split: %s@." (Ucrpq.to_string split);
  Format.printf "equivalent under q-inj: %s@."
    (match Ucrpq.equivalent Semantics.Q_inj whole split with
    | Some true -> "yes (proved by the union-aware Theorem 5.1 algorithm)"
    | Some false -> "no"
    | None -> "undecided");

  header "Semantics-aware minimization";
  let q = Crpq.parse "Q(x, z) :- x -[a]-> y, y -[b]-> z, x -[ab]-> z" in
  Format.printf "query: %s@." (Crpq.to_string q);
  List.iter
    (fun sem ->
      Format.printf "  %-7s -> %s@." (Semantics.to_string sem)
        (Crpq.to_string (fst (Rewrite.rewrite sem q))))
    Semantics.node_semantics;

  header "Satisfiability and language pruning";
  let junk = Crpq.parse "Q(x, y) :- x -[aa*|a*a]-> y, y -[b?]-> x" in
  Format.printf "before: %s@." (Crpq.to_string junk);
  Format.printf "after:  %s@." (Crpq.to_string (Minimize.prune_languages junk));
  Format.printf "satisfiable: %b;  with an empty atom: %b@."
    (Minimize.is_satisfiable junk)
    (Minimize.is_satisfiable (Crpq.parse "x -[!]-> y"));

  header "Two-way navigation (C2RPQ)";
  (* co-citation: two papers citing a common third *)
  let cites =
    Graph.make ~nnodes:4 [ (0, "c", 2); (1, "c", 2); (0, "c", 3) ]
  in
  let cocited = Crpq.parse "Q(x, y) :- x -[c<~c>]-> y" in
  Format.printf "co-citation query: %s@." (Crpq.to_string cocited);
  Format.printf "answers (st):    %s@."
    (String.concat " "
       (List.map
          (fun t -> "(" ^ String.concat "," (List.map string_of_int t) ^ ")")
          (C2rpq.eval Semantics.St cocited cites)));
  Format.printf "answers (q-inj): %s   (no x=y pairs: injectivity)@."
    (String.concat " "
       (List.map
          (fun t -> "(" ^ String.concat "," (List.map string_of_int t) ^ ")")
          (C2rpq.eval Semantics.Q_inj cocited cites)));

  header "Pure-inverse elimination";
  let rev = Crpq.parse "Q(x, y) :- x -[<~c>+]-> y" in
  (match C2rpq.try_eliminate rev with
  | Some plain -> Format.printf "%s  ≡  %s@." (Crpq.to_string rev) (Crpq.to_string plain)
  | None -> Format.printf "not eliminable@.")
