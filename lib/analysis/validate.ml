let diag = Diagnostic.make

let disjoint_alphabets ~what s1 s2 =
  let s2_tbl = Hashtbl.create 16 in
  List.iter (fun x -> Hashtbl.replace s2_tbl x ()) s2;
  let shared =
    List.sort_uniq String.compare (List.filter (Hashtbl.mem s2_tbl) s1)
  in
  match shared with
  | [] -> []
  | _ ->
    [
      diag ~code:"E201" ~severity:Diagnostic.Error ~location:Diagnostic.Query
        (Printf.sprintf "%s must use disjoint alphabets but share {%s}" what
           (String.concat ", " shared));
    ]

let connected ~what (q : Crpq.t) =
  match Crpq.vars q with
  | [] -> []
  | first :: _ as vars ->
    let seen = Lint_query.reachable_from q [ first ] in
    List.filter_map
      (fun x ->
        if Hashtbl.mem seen x then None
        else
          Some
            (diag ~code:"E202" ~severity:Diagnostic.Error ~location:(Diagnostic.Var x)
               (Printf.sprintf
                  "%s must be connected, but variable %s is not reachable from %s \
                   in the atom graph"
                  what x first)))
      vars

let same_arity (q1 : Crpq.t) (q2 : Crpq.t) =
  let a1 = List.length q1.Crpq.free and a2 = List.length q2.Crpq.free in
  if a1 = a2 then []
  else
    [
      diag ~code:"E203" ~severity:Diagnostic.Error ~location:Diagnostic.Query
        (Printf.sprintf "containment pair has mismatched arities %d vs %d" a1 a2);
    ]

let containment_encoding ?(disjoint = []) ?(connected_queries = []) ~q1 ~q2 () =
  same_arity q1 q2
  @ (if Minimize.is_satisfiable q1 then []
     else
       [
         diag ~code:"E204" ~severity:Diagnostic.Error ~location:Diagnostic.Query
           "left query of the encoding is unsatisfiable: the containment instance \
            is trivial";
       ])
  @ List.concat_map (fun (what, s1, s2) -> disjoint_alphabets ~what s1 s2) disjoint
  @ List.concat_map (fun (what, q) -> connected ~what q) connected_queries

let check ~name ds =
  match List.filter (fun d -> d.Diagnostic.severity = Diagnostic.Error) ds with
  | [] -> true
  | errors ->
    failwith
      (Printf.sprintf "%s produced an ill-formed encoding:\n%s" name
         (String.concat "\n" (List.map Diagnostic.to_string errors)))
