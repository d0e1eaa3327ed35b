(* Containment as an optimizer: removing redundant atoms.

   Static analysis via containment is the paper's motivation (Section 1):
   if dropping an atom yields an equivalent query, the atom is redundant
   and evaluation can skip it.  Crucially, redundancy depends on the
   semantics — an atom that is redundant under standard semantics can be
   load-bearing under an injective one.

   Run with:  dune exec examples/query_optimizer.exe *)

let minimize sem q = fst (Analysis.optimize ~sem q)

let () =
  (* the b-atom is implied by the ab-atom under standard semantics (map
     both atoms into the same expansion), but not under the injective
     semantics where the extra atom demands its own simple path *)
  let q = Crpq.parse "Q(x, z) :- x -[a]-> y, y -[b]-> z, x -[ab]-> z" in
  Format.printf "query: %s@.@." (Crpq.to_string q);
  List.iter
    (fun sem ->
      let m = minimize sem q in
      Format.printf "%-7s minimized: %s   (%d -> %d atoms)@."
        (Semantics.to_string sem) (Crpq.to_string m) (Crpq.size q) (Crpq.size m))
    Semantics.node_semantics;

  (* a second query with a genuinely redundant relaxation atom *)
  let q2 = Crpq.parse "Q(x, y) :- x -[ab]-> y, x -[(a|b)(a|b)]-> y" in
  Format.printf "@.query: %s@.@." (Crpq.to_string q2);
  List.iter
    (fun sem ->
      let m = minimize sem q2 in
      Format.printf "%-7s minimized: %s@." (Semantics.to_string sem)
        (Crpq.to_string m))
    Semantics.node_semantics;

  (* verify optimization is sound on a concrete database *)
  let rng = Random.State.make [| 1 |] in
  let g = Generate.gnp ~rng ~nodes:6 ~labels:[ "a"; "b" ] ~p:0.3 in
  let sem = Semantics.St in
  let m = minimize sem q in
  Format.printf "@.same answers on a random database (st): %b@."
    (Eval.eval sem q g = Eval.eval sem m g)
