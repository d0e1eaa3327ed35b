type t = {
  disjuncts : Crpq.t list;
  arity : int;
}

let make disjuncts =
  match disjuncts with
  | [] -> invalid_arg "Ucrpq.make: empty union"
  | q :: rest ->
    let arity = List.length q.Crpq.free in
    List.iter
      (fun (p : Crpq.t) ->
        if List.length p.Crpq.free <> arity then
          invalid_arg "Ucrpq.make: disjuncts of different arities")
      rest;
    { disjuncts; arity }

let of_crpq q = make [ q ]

let empty ~arity =
  let vars = List.init (max arity 1) (fun i -> Printf.sprintf "x%d" i) in
  let free = List.init arity (fun i -> List.nth vars (min i (List.length vars - 1))) in
  (* a single unsatisfiable disjunct *)
  make [ Crpq.make ~free [ Crpq.atom (List.hd vars) Regex.empty (List.hd vars) ] ]

let union u1 u2 =
  if u1.arity <> u2.arity then invalid_arg "Ucrpq.union: arity mismatch";
  { disjuncts = u1.disjuncts @ u2.disjuncts; arity = u1.arity }

let classify u =
  List.fold_left
    (fun acc q ->
      match acc, Crpq.classify q with
      | Crpq.Class_crpq, _ | _, Crpq.Class_crpq -> Crpq.Class_crpq
      | Crpq.Class_fin, _ | _, Crpq.Class_fin -> Crpq.Class_fin
      | Crpq.Class_cq, Crpq.Class_cq -> Crpq.Class_cq)
    Crpq.Class_cq u.disjuncts

(* ------------------------------------------------------------------ *)
(* Evaluation                                                          *)
(* ------------------------------------------------------------------ *)

let eval sem u g =
  List.sort_uniq compare (List.concat_map (fun q -> Eval.eval sem q g) u.disjuncts)

let check sem u g tuple = List.exists (fun q -> Eval.check sem q g tuple) u.disjuncts

let eval_bool sem u g = List.exists (fun q -> Eval.eval_bool sem q g) u.disjuncts

(* ------------------------------------------------------------------ *)
(* Containment                                                         *)
(* ------------------------------------------------------------------ *)

let contained ?bound ?guard sem u1 u2 =
  if u1.arity <> u2.arity then
    invalid_arg "Ucrpq.contained: unions of different arities";
  Containment.decide_union ?bound ?guard sem u1.disjuncts u2.disjuncts

let equivalent ?bound ?guard sem u1 u2 =
  match
    ( Containment.verdict_bool (contained ?bound ?guard sem u1 u2),
      Containment.verdict_bool (contained ?bound ?guard sem u2 u1) )
  with
  | Some a, Some b -> Some (a && b)
  | _ -> None

let pp ppf u =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "  ∨  ")
    Crpq.pp ppf u.disjuncts

let to_string u = Format.asprintf "%a" pp u
