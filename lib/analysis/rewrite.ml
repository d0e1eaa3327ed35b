let m_checked = Obs.Metrics.counter "analysis.certificates_checked"

let m_failed = Obs.Metrics.counter "analysis.certificates_failed"

let m_applied = Obs.Metrics.counter "analysis.rewrites_applied"

let h_certificate_ns = Obs.Metrics.histogram "analysis.certificate_ns"

type candidate =
  | Collapse_unsat
  | Merge_vars of { kept : Crpq.var; dropped : Crpq.var }
  | Drop_atom of { index : int; atom : Crpq.atom }

let candidate_to_string = function
  | Collapse_unsat -> "collapse-unsat"
  | Merge_vars { kept; dropped } -> Printf.sprintf "merge-vars %s := %s" dropped kept
  | Drop_atom { index; atom } ->
    Printf.sprintf "drop-atom %d (%s -[%s]-> %s)" index atom.Crpq.src
      (Regex.to_string atom.Crpq.lang)
      atom.Crpq.dst

type check = {
  lhs : Crpq.t;
  rhs : Crpq.t;
  verdict : Containment.verdict;
  wall_ns : int64;
}

type step = {
  candidate : candidate;
  checks : check list;
  applied : bool;
  note : string;
}

type report = {
  steps : step list;
  before_atoms : int;
  after_atoms : int;
  before_vars : int;
  after_vars : int;
}

let removed_atoms r = r.before_atoms - r.after_atoms

type oracle = Semantics.t -> Crpq.t -> Crpq.t -> Containment.verdict

(* Semantics the deciders refuse outright (the Section-7 edge variants)
   certify nothing rather than crash: an uncertified rewrite is simply
   not applied, which is the engine's safe default. *)
let default_oracle ?(bound = 4) () sem q1 q2 =
  try Containment.decide ~bound sem q1 q2
  with Invalid_argument msg -> Containment.Unknown (Containment.Undecided msg)

(* ------------------------------------------------------------------ *)
(* Candidates                                                          *)
(* ------------------------------------------------------------------ *)

let eps_only lang = Regex.nullable lang && Regex.is_empty_lang (Regex.remove_eps lang)

(* the canonical unsatisfiable query with the given head *)
let unsat_query ~free =
  let v = match free with x :: _ -> x | [] -> "x" in
  Crpq.make ~free [ Crpq.atom v Regex.empty v ]

let is_unsat_canonical (q : Crpq.t) =
  match q.Crpq.atoms with
  | [ a ] -> a.Crpq.src = a.Crpq.dst && Regex.is_empty_lang a.Crpq.lang
  | _ -> false

let candidates (q : Crpq.t) =
  let unsat =
    if Crpq.has_empty_language q && not (is_unsat_canonical q) then [ Collapse_unsat ]
    else []
  in
  let merges =
    List.filter_map
      (fun (a : Crpq.atom) ->
        if eps_only a.Crpq.lang && a.Crpq.src <> a.Crpq.dst then begin
          let free x = List.mem x q.Crpq.free in
          match (free a.Crpq.src, free a.Crpq.dst) with
          | true, true -> None (* the head tuple must keep its shape *)
          | true, false -> Some (Merge_vars { kept = a.Crpq.src; dropped = a.Crpq.dst })
          | false, true -> Some (Merge_vars { kept = a.Crpq.dst; dropped = a.Crpq.src })
          | false, false ->
            let kept = min a.Crpq.src a.Crpq.dst
            and dropped = max a.Crpq.src a.Crpq.dst in
            Some (Merge_vars { kept; dropped })
        end
        else None)
      q.Crpq.atoms
  in
  let drops =
    if List.length q.Crpq.atoms < 2 then []
    else List.mapi (fun index atom -> Drop_atom { index; atom }) q.Crpq.atoms
  in
  unsat @ merges @ drops

let remove_nth n l = List.filteri (fun i _ -> i <> n) l

let apply_candidate (q : Crpq.t) = function
  | Collapse_unsat ->
    if Crpq.has_empty_language q && not (is_unsat_canonical q) then
      Some (unsat_query ~free:q.Crpq.free)
    else None
  | Drop_atom { index; atom } -> begin
    match List.nth_opt q.Crpq.atoms index with
    | Some a when a = atom && List.length q.Crpq.atoms >= 2 ->
      Some (Crpq.make ~free:q.Crpq.free (remove_nth index q.Crpq.atoms))
    | _ -> None
  end
  | Merge_vars { kept; dropped } ->
    if kept = dropped || List.mem dropped q.Crpq.free then None
    else begin
      let sub x = if x = dropped then kept else x in
      let atoms =
        List.map
          (fun (a : Crpq.atom) ->
            { a with Crpq.src = sub a.Crpq.src; Crpq.dst = sub a.Crpq.dst })
          q.Crpq.atoms
      in
      (* drop the ε self-loops the substitution creates, but never all
         atoms: an atomless query has no syntax *)
      let trivial (a : Crpq.atom) = a.Crpq.src = a.Crpq.dst && eps_only a.Crpq.lang in
      let kept_atoms =
        match List.filter (fun a -> not (trivial a)) atoms with
        | [] -> [ List.hd atoms ]
        | l -> l
      in
      if List.exists (fun (a : Crpq.atom) -> a.Crpq.src = dropped || a.Crpq.dst = dropped) q.Crpq.atoms
      then Some (Crpq.make ~free:q.Crpq.free kept_atoms)
      else None
    end

(* ------------------------------------------------------------------ *)
(* Certified fixpoint                                                  *)
(* ------------------------------------------------------------------ *)

(* One direction of a certificate, with its wall-clock cost; the
   histogram makes runaway oracle calls visible in explain reports. *)
let timed_check ~oracle sem lhs rhs =
  let t0 = Obs.Clock.now_ns () in
  let verdict = oracle sem lhs rhs in
  let wall_ns = Int64.sub (Obs.Clock.now_ns ()) t0 in
  Obs.Metrics.observe h_certificate_ns (Int64.to_int wall_ns);
  { lhs; rhs; verdict; wall_ns }

let certify ~oracle sem q q' =
  Obs.Metrics.incr m_checked;
  let forward = timed_check ~oracle sem q q' in
  match forward.verdict with
  | Containment.Contained ->
    let backward = timed_check ~oracle sem q' q in
    let ok = backward.verdict = Containment.Contained in
    if not ok then Obs.Metrics.incr m_failed;
    ([ forward; backward ], ok)
  | _ ->
    Obs.Metrics.incr m_failed;
    ([ forward ], false)

let drop_certified ?(oracle = default_oracle ()) sem (q : Crpq.t) index =
  match List.nth_opt q.Crpq.atoms index with
  | None -> false
  | Some atom -> (
    match apply_candidate q (Drop_atom { index; atom }) with
    | None -> false
    | Some q' -> snd (certify ~oracle sem q q'))

let describe_failure checks =
  match List.rev checks with
  | { verdict = Containment.Not_contained _; _ } :: _ ->
    "rejected: containment refuted (rewrite would change the answer set)"
  | { verdict = Containment.Unknown r; _ } :: _ ->
    "unproven: " ^ Containment.reason_to_string r
  | _ -> "unproven"

let rewrite ?oracle sem (q0 : Crpq.t) =
  let oracle = match oracle with Some f -> f | None -> default_oracle () in
  Obs.Trace.span "analysis.rewrite" @@ fun () ->
  let max_rounds = List.length q0.Crpq.atoms + List.length (Crpq.vars q0) + 1 in
  let steps = ref [] in
  let rec round q n =
    if n >= max_rounds then q
    else begin
      let rec try_candidates tried = function
        | [] ->
          (* nothing certified this round: keep the rejections on record
             ([tried] and [steps] are both newest-first) *)
          steps := tried @ !steps;
          None
        | c :: rest -> begin
          Guard.checkpoint "analysis.rewrite";
          match apply_candidate q c with
          | None -> try_candidates tried rest
          | Some q' -> begin
            let checks, ok = certify ~oracle sem q q' in
            if ok then begin
              Obs.Metrics.incr m_applied;
              steps :=
                { candidate = c; checks; applied = true; note = "certified" }
                :: !steps;
              Some q'
            end
            else begin
              let note = describe_failure checks in
              if Obs.Events.enabled () then
                Obs.Events.emit Obs.Events.Info "analysis.rewrite_refused"
                  [
                    ("candidate", Obs.Json.String (candidate_to_string c));
                    ("note", Obs.Json.String note);
                  ];
              let step = { candidate = c; checks; applied = false; note } in
              try_candidates (step :: tried) rest
            end
          end
        end
      in
      match try_candidates [] (candidates q) with
      | Some q' -> round q' (n + 1)
      | None -> q
    end
  in
  let result = round q0 0 in
  let report =
    {
      steps = List.rev !steps;
      before_atoms = Crpq.size q0;
      after_atoms = Crpq.size result;
      before_vars = List.length (Crpq.vars q0);
      after_vars = List.length (Crpq.vars result);
    }
  in
  (result, report)
