let diag = Diagnostic.make

let atom_to_string (a : Crpq.atom) =
  Printf.sprintf "%s -[%s]-> %s" a.Crpq.src (Regex.to_string a.Crpq.lang) a.Crpq.dst

let empty_atoms (q : Crpq.t) =
  List.concat
    (List.mapi
       (fun i (a : Crpq.atom) ->
         if Regex.is_empty_lang a.Crpq.lang then
           [
             diag ~code:"E001" ~severity:Diagnostic.Error ~location:(Diagnostic.Atom i)
               (Printf.sprintf
                  "atom %s denotes the empty language: the query has no expansion and \
                   no answer under any semantics"
                  (atom_to_string a));
           ]
         else [])
       q.Crpq.atoms)

let eps_only_atoms (q : Crpq.t) =
  List.concat
    (List.mapi
       (fun i (a : Crpq.atom) ->
         if
           Regex.nullable a.Crpq.lang
           && Regex.is_empty_lang (Regex.remove_eps a.Crpq.lang)
         then
           [
             diag ~code:"W002" ~severity:Diagnostic.Warning ~location:(Diagnostic.Atom i)
               (Printf.sprintf
                  "atom %s admits only \xce\xb5 and silently collapses %s into %s; the \
                   collapse behaves differently under st, a-inj and q-inj (the merged \
                   variable counts once for injectivity)"
                  (atom_to_string a) a.Crpq.src a.Crpq.dst);
           ]
         else [])
       q.Crpq.atoms)

let duplicate_atoms ~sem (q : Crpq.t) =
  (* atoms are sorted by [Crpq.make], so duplicates are adjacent *)
  let rec go i prev acc = function
    | [] -> List.rev acc
    | a :: rest ->
      let acc =
        if prev = Some a then begin
          let d =
            match sem with
            | Semantics.Q_inj | Semantics.Q_edge_inj ->
              diag ~code:"W003" ~severity:Diagnostic.Info ~location:(Diagnostic.Atom i)
                (Printf.sprintf
                   "duplicate atom %s: under %s it demands a second, internally \
                    disjoint path — not idempotent (Example 2.1); keep it only if \
                    the two-disjoint-paths reading is intended"
                   (atom_to_string a) (Semantics.to_string sem))
            | Semantics.St | Semantics.A_inj | Semantics.A_edge_inj ->
              diag ~code:"W003" ~severity:Diagnostic.Warning ~location:(Diagnostic.Atom i)
                (Printf.sprintf
                   "duplicate atom %s is idempotent under %s semantics and can be \
                    removed"
                   (atom_to_string a) (Semantics.to_string sem))
          in
          d :: acc
        end
        else acc
      in
      go (i + 1) (Some a) acc rest
  in
  go 0 None [] q.Crpq.atoms

(* Undirected reachability in the atom graph, ignoring languages. *)
let reachable_from (q : Crpq.t) seeds =
  let adj = Hashtbl.create 16 in
  let add x y =
    let cur = Option.value ~default:[] (Hashtbl.find_opt adj x) in
    Hashtbl.replace adj x (y :: cur)
  in
  List.iter
    (fun (a : Crpq.atom) ->
      add a.Crpq.src a.Crpq.dst;
      add a.Crpq.dst a.Crpq.src)
    q.Crpq.atoms;
  let seen = Hashtbl.create 16 in
  let rec go x =
    if not (Hashtbl.mem seen x) then begin
      Hashtbl.add seen x ();
      List.iter go (Option.value ~default:[] (Hashtbl.find_opt adj x))
    end
  in
  List.iter go seeds;
  seen

let disconnected_vars (q : Crpq.t) =
  match q.Crpq.free with
  | [] -> [] (* Boolean query: no anchor to be disconnected from *)
  | free ->
    let seen = reachable_from q free in
    List.filter_map
      (fun x ->
        if Hashtbl.mem seen x then None
        else
          Some
            (diag ~code:"W004" ~severity:Diagnostic.Warning ~location:(Diagnostic.Var x)
               (Printf.sprintf
                  "variable %s is disconnected from every free variable: its \
                   component joins as a cartesian-product factor"
                  x)))
      (Crpq.vars q)

let unused_free_vars (q : Crpq.t) =
  let occurs x =
    List.exists
      (fun (a : Crpq.atom) -> String.equal a.Crpq.src x || String.equal a.Crpq.dst x)
      q.Crpq.atoms
  in
  List.filter_map
    (fun x ->
      if occurs x then None
      else
        Some
          (diag ~code:"W005" ~severity:Diagnostic.Warning ~location:(Diagnostic.Var x)
             (Printf.sprintf
                "free variable %s occurs in no atom and ranges over every node of \
                 the database"
                x)))
    (List.sort_uniq String.compare q.Crpq.free)

(* W104: mirrors the seeding pass of the CSP morphism solver against a
   user-supplied example graph.  A node [u] survives in the candidate
   domain of variable [x] only if, for every atom [x -[L]-> y], some
   L-path leaves [u] (resp. enters [u] when [x] is the destination).
   This relaxation ignores the joint choice of the other endpoint, so
   an empty domain is a proof — not a heuristic — that the query has no
   answers on that graph, under any of the five semantics (injectivity
   only shrinks answer sets). *)
let empty_domain_atoms ~graph (q : Crpq.t) =
  let n = Graph.nnodes graph in
  let domains = Hashtbl.create 8 in
  let dom x =
    match Hashtbl.find_opt domains x with
    | Some d -> d
    | None ->
      let d = Array.make n true in
      Hashtbl.add domains x d;
      d
  in
  List.iter
    (fun (a : Crpq.atom) ->
      if not (Regex.is_empty_lang a.Crpq.lang) then begin
        (* one forward search per source, O(n·m) words: a source has an
           out-path iff it reaches a node, and each node reached an in-path *)
        let s = Path_search.simple_searcher graph (Nfa.of_regex a.Crpq.lang) in
        let has_out = Array.make n false and has_in = Array.make n false in
        for u = 0 to n - 1 do
          Path_search.reachable_with s ~src:u (fun v ->
              has_out.(u) <- true;
              has_in.(v) <- true)
        done;
        let ds = dom a.Crpq.src and dd = dom a.Crpq.dst in
        Array.iteri (fun u b -> ds.(u) <- ds.(u) && b) has_out;
        Array.iteri (fun v b -> dd.(v) <- dd.(v) && b) has_in
      end)
    q.Crpq.atoms;
  let is_empty x =
    (* a variable occurring in no atom is unconstrained (W005's
       business), not empty *)
    match Hashtbl.find_opt domains x with
    | Some d -> not (Array.exists Fun.id d)
    | None -> false
  in
  let reported = Hashtbl.create 8 in
  List.concat
    (List.mapi
       (fun i (a : Crpq.atom) ->
         List.filter_map
           (fun x ->
             if is_empty x && not (Hashtbl.mem reported x) then begin
               Hashtbl.add reported x ();
               Some
                 (diag ~code:"W104" ~severity:Diagnostic.Warning
                    ~location:(Diagnostic.Atom i)
                    (Printf.sprintf
                       "variable %s has an empty candidate domain on the \
                        example graph (%d nodes): no node satisfies all the \
                        path constraints on %s, so the query has no answers \
                        there under any semantics"
                       x n x))
             end
             else None)
           (List.sort_uniq String.compare [ a.Crpq.src; a.Crpq.dst ]))
       q.Crpq.atoms)

let redundant_atoms ?(bound = 4) ~sem (q : Crpq.t) =
  if List.length q.Crpq.atoms <= 1 || Crpq.has_empty_language q then []
  else begin
    let oracle = Rewrite.default_oracle ~bound () in
    List.concat
      (List.mapi
         (fun i (a : Crpq.atom) ->
           if Rewrite.drop_certified ~oracle sem q i then
             [
               diag ~code:"I006" ~severity:Diagnostic.Info ~location:(Diagnostic.Atom i)
                 (Printf.sprintf
                    "atom %s is implied by the remaining atoms under %s semantics \
                     (containment-certified); consider removing it"
                    (atom_to_string a) (Semantics.to_string sem));
             ]
           else [])
         q.Crpq.atoms)
  end
