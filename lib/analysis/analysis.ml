let lint ?(sem = Semantics.Q_inj) ?(redundancy = true) ?(bound = 4)
    ?(nfa_hygiene = true) ?(shape = false) ?graph q =
  let passes =
    [
      Lint_query.empty_atoms q;
      Lint_query.eps_only_atoms q;
      Lint_query.duplicate_atoms ~sem q;
      Lint_query.disconnected_vars q;
      Lint_query.unused_free_vars q;
      (if redundancy then Lint_query.redundant_atoms ~bound ~sem q else []);
      (if nfa_hygiene then Lint_nfa.empty_language_atoms q else []);
      (if nfa_hygiene then Lint_nfa.atom_diagnostics q else []);
      (if shape then Query_shape.diagnostics q else []);
      (match graph with
      | Some g -> Lint_query.empty_domain_atoms ~graph:g q
      | None -> []);
    ]
  in
  Diagnostic.sort (List.concat passes)

let lint_ucrpq ?sem ?redundancy ?bound ?nfa_hygiene ?shape ?graph (u : Ucrpq.t) =
  Diagnostic.sort
    (List.concat
       (List.mapi
          (fun i q ->
            List.map
              (fun d ->
                {
                  d with
                  Diagnostic.message =
                    Printf.sprintf "disjunct %d: %s" i d.Diagnostic.message;
                })
              (lint ?sem ?redundancy ?bound ?nfa_hygiene ?shape ?graph q))
          u.Ucrpq.disjuncts))

let degenerate q =
  Lint_query.empty_atoms q <> []
  || Lint_query.eps_only_atoms q <> []
  || Crpq.epsilon_free_disjuncts q = []

(* ------------------------------------------------------------------ *)
(* The certified optimizer                                             *)
(* ------------------------------------------------------------------ *)

type optimize_report = {
  rewrite : Rewrite.report;
  shape_before : Query_shape.summary;
  shape_after : Query_shape.summary;
}

let optimize ?(sem = Semantics.Q_inj) ?bound ?oracle ?exact_limit q =
  Obs.Trace.span "analysis.optimize" @@ fun () ->
  let oracle =
    match oracle with Some f -> f | None -> Rewrite.default_oracle ?bound ()
  in
  let shape_before = Query_shape.summarize ?exact_limit q in
  let q', rewrite = Rewrite.rewrite ~oracle sem q in
  let shape_after =
    if q' == q then shape_before else Query_shape.summarize ?exact_limit q'
  in
  (q', { rewrite; shape_before; shape_after })

let optimize_ucrpq ?sem ?bound ?oracle ?exact_limit (u : Ucrpq.t) =
  let results =
    List.map (fun q -> optimize ?sem ?bound ?oracle ?exact_limit q) u.Ucrpq.disjuncts
  in
  (Ucrpq.make (List.map fst results), List.map snd results)

(* ------------------------------------------------------------------ *)
(* Opt-in pre-pass for Eval / Containment (INJCRPQ_OPTIMIZE, --optimize)*)
(* ------------------------------------------------------------------ *)

(* One shared re-entrancy flag: certificate checks inside [optimize]
   call [Containment.decide], which would re-enter the preprocessor and
   recurse forever.  Nested calls see [busy = true] and pass the query
   through unchanged. *)
let busy = ref false

(* The pre-pass skips the shape analysis (callers only consume the
   rewritten query) and large queries: certificate checks on a
   many-atom query (a hardness encoding, say) cost far more than any
   evaluation they could save.  "Large" is both atom count and total
   regex size — reduction encodings carry few atoms but huge languages,
   and a bounded certificate search enumerates their expansions. *)
let regex_weight q =
  List.fold_left (fun acc (a : Crpq.atom) -> acc + Regex.size a.Crpq.lang) 0 q.Crpq.atoms

let max_regex_weight = 24

let preprocess ~bound ~max_atoms sem q =
  if !busy || Crpq.size q > max_atoms || regex_weight q > max_regex_weight then q
  else begin
    busy := true;
    Fun.protect
      ~finally:(fun () -> busy := false)
      (fun () ->
        let oracle = Rewrite.default_oracle ~bound () in
        let q', _ = Rewrite.rewrite ~oracle sem q in
        q')
  end

let install_preprocessor ?(bound = 2) ?(max_atoms = 6) () =
  Eval.set_preprocessor (preprocess ~bound ~max_atoms);
  Containment.set_preprocessor (preprocess ~bound ~max_atoms)

let uninstall_preprocessor () =
  Eval.set_preprocessor (fun _ q -> q);
  Containment.set_preprocessor (fun _ q -> q)

(* ------------------------------------------------------------------ *)
(* Shared renderers and input helpers (CLI and golden tests)           *)
(* ------------------------------------------------------------------ *)

let read_query_file path =
  match open_in path with
  | exception Sys_error msg -> Error msg
  | ic ->
    let base = Filename.basename path in
    let rec go acc lineno =
      match input_line ic with
      | line ->
        let trimmed = String.trim line in
        if trimmed = "" || trimmed.[0] = '#' then go acc (lineno + 1)
        else begin
          match Crpq.parse_result trimmed with
          | Ok q -> go ((Printf.sprintf "%s:%d" base lineno, q) :: acc) (lineno + 1)
          | Error e ->
            close_in ic;
            raise
              (Failure
                 (Printf.sprintf "%s:%d: cannot parse query: %s" path lineno
                    (Crpq.string_of_parse_error e)))
        end
      | exception End_of_file ->
        close_in ic;
        List.rev acc
    in
    (match go [] 1 with
    | queries -> Ok queries
    | exception Failure msg -> Error msg)

let lint_json results =
  Printf.sprintf "[%s]"
    (String.concat ","
       (List.map
          (fun (name, q, ds) ->
            Printf.sprintf {|{"name":"%s","query":"%s","diagnostics":%s}|}
              (Diagnostic.json_escape name)
              (Diagnostic.json_escape (Crpq.to_string q))
              (Diagnostic.list_to_json ds))
          results))

let step_json (s : Rewrite.step) =
  Obs.Json.Obj
    [
      ("candidate", Obs.Json.String (Rewrite.candidate_to_string s.Rewrite.candidate));
      ("applied", Obs.Json.Bool s.Rewrite.applied);
      ("note", Obs.Json.String s.Rewrite.note);
      ( "checks",
        Obs.Json.List
          (List.map
             (fun (c : Rewrite.check) ->
               Obs.Json.Obj
                 [
                   ("lhs", Obs.Json.String (Crpq.to_string c.Rewrite.lhs));
                   ("rhs", Obs.Json.String (Crpq.to_string c.Rewrite.rhs));
                   ("verdict", Obs.Json.String (Containment.verdict_name c.Rewrite.verdict));
                   ("wall_ns", Obs.Json.Int (Int64.to_int c.Rewrite.wall_ns));
                 ])
             s.Rewrite.checks) );
    ]

let optimize_json ~name ~sem ~before ~after (r : optimize_report) =
  Obs.Json.Obj
    [
      ("name", Obs.Json.String name);
      ("semantics", Obs.Json.String (Semantics.to_string sem));
      ("before", Obs.Json.String (Crpq.to_string before));
      ("after", Obs.Json.String (Crpq.to_string after));
      ("changed", Obs.Json.Bool (not (Crpq.to_string before = Crpq.to_string after)));
      ("atoms_removed", Obs.Json.Int (Rewrite.removed_atoms r.rewrite));
      ("shape_before", Query_shape.summary_json r.shape_before);
      ("shape_after", Query_shape.summary_json r.shape_after);
      ("steps", Obs.Json.List (List.map step_json r.rewrite.Rewrite.steps));
    ]
