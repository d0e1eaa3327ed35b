(* The workloads' inputs and their pinned answers.

   Every workload draws its ops from a fixed pool built by the library's
   own generators from constant seeds; the run's [--seed] only chooses
   the order in which the pool is replayed.  Each pool entry's expected
   answer is pinned in [perfbench/pins/<workload>.pin], produced by
   [main.exe pin <workload>] on the reference paths (bulk engine off,
   i.e. [Path_search]; containment verdicts cross-checked by bounded
   search).  A pin line is

     <index> TAB <digest of the op text> TAB <field> ...

   and a digest that no longer matches the regenerated op text means the
   pool drifted: the run then fails instead of checking against stale
   answers. *)

let digest s = String.sub (Digest.to_hex (Digest.string s)) 0 8

(* ------------------------------------------------------------------ *)
(* Answer signatures                                                   *)
(* ------------------------------------------------------------------ *)

let mix x =
  let x = (x lxor (x lsr 31)) * 0x5851F42D4C957F2D in
  x lxor (x lsr 29)

let tuple_hash t = List.fold_left (fun h v -> mix (h lxor v)) 0x2545F491 t

(* Count plus an order-independent hash of the answer tuples. *)
let answers_sig tuples =
  let n, h = List.fold_left (fun (n, h) t -> (n + 1, h + tuple_hash t)) (0, 0) tuples in
  Printf.sprintf "%d:%012x" n (h land 0xFFFFFFFFFFFF)

let answers_of_sig s = int_of_string_opt (List.hd (String.split_on_char ':' s))

let verdict_sig = function
  | Containment.Contained -> "contained"
  | Containment.Not_contained _ -> "not-contained"
  | Containment.Unknown _ -> "unknown"

(* ------------------------------------------------------------------ *)
(* Pin files                                                           *)
(* ------------------------------------------------------------------ *)

let pin_dir = Filename.concat "perfbench" "pins"

let pin_path w = Filename.concat pin_dir (w ^ ".pin")

type pin = { idx : int; key : string; fields : string list }

let read_pins w =
  let path = pin_path w in
  if not (Sys.file_exists path) then failwith ("missing pin file " ^ path);
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | exception End_of_file -> List.rev acc
        | line when line = "" || line.[0] = '#' -> go acc
        | line -> (
          match String.split_on_char '\t' line with
          | idx :: key :: fields -> go ({ idx = int_of_string idx; key; fields } :: acc)
          | _ -> failwith ("malformed pin line in " ^ path ^ ": " ^ line))
      in
      go [])

let write_pins w ~header pins =
  if not (Sys.file_exists pin_dir) then Sys.mkdir pin_dir 0o755;
  let oc = open_out (pin_path w) in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc "# %s\n" header;
      List.iter
        (fun p ->
          Printf.fprintf oc "%d\t%s\t%s\n" p.idx p.key (String.concat "\t" p.fields))
        pins)

(* The pool entry a pin refers to, or a failure naming the drift. *)
let check_key w p text =
  if not (String.equal (digest text) p.key) then
    failwith
      (Printf.sprintf "%s pool entry %d no longer matches its pin; regenerate with `pin %s`"
         w p.idx w)

(* ------------------------------------------------------------------ *)
(* Graphs                                                              *)
(* ------------------------------------------------------------------ *)

let gnm_nodes = 1000

let gnm_graph () =
  Generate.gnm
    ~rng:(Random.State.make [| 2023 |])
    ~nodes:gnm_nodes ~labels:[ "a"; "b"; "c" ] ~edges:(3 * gnm_nodes)

let kg_graph () = Suite.knowledge_graph ~seed:7 ~entities:60

(* ------------------------------------------------------------------ *)
(* Candidate generators (deterministic in the index)                   *)
(* ------------------------------------------------------------------ *)

(* st-gnm: 1-3 atom chains [v0 -> v1 -> ...] with free [(v0, v1)] and at
   least one Kleene star or plus. *)
let gnm_query i =
  let rng = Random.State.make [| 11; i |] in
  let natoms = 1 + (i mod 3) in
  let q =
    Qgen.random_crpq ~rng ~shape:Qgen.Chain ~labels:[ "a"; "b"; "c" ]
      ~nvars:(natoms + 1) ~natoms ~arity:2 ~cls:Crpq.Class_crpq ()
  in
  if Crpq.classify q = Crpq.Class_crpq && Suite.precheck q then Some q else None

(* contain: Qgen.contained_pair pairs with 3-4 atoms across the three
   node semantics (a-inj only with CRPQfin sides, where the decider is
   exact), plus Theorem 5.1 scaling pairs of size <= 4. *)
let contain_pair i =
  let rng = Random.State.make [| 13; i |] in
  let natoms = 3 + (i / 4 mod 2) in
  let sem, pair =
    match i mod 4 with
    | 0 ->
      ( Semantics.St,
        Qgen.contained_pair ~rng ~labels:[ "a"; "b" ] ~nvars:3 ~natoms ~cls:Crpq.Class_crpq () )
    | 1 ->
      ( Semantics.Q_inj,
        Qgen.contained_pair ~rng ~labels:[ "a"; "b" ] ~nvars:3 ~natoms ~cls:Crpq.Class_crpq () )
    | 2 ->
      ( Semantics.A_inj,
        Qgen.contained_pair ~rng ~labels:[ "a"; "b" ] ~nvars:3 ~natoms ~cls:Crpq.Class_fin () )
    | _ -> (
      let size = 2 + (i / 4 mod 3) in
      match Suite.qinj_scaling ~seed:i ~sizes:[ size ] with
      | [ (_, pairs) ] -> (Semantics.Q_inj, List.nth pairs (i / 12 mod List.length pairs))
      | _ -> assert false)
  in
  let q1, q2 = pair in
  if Suite.precheck q1 && Suite.precheck q2 then Some (sem, q1, q2) else None

let contain_text (sem, q1, q2) =
  String.concat "\t" [ Semantics.to_string sem; Crpq.to_string q1; Crpq.to_string q2 ]

(* serve: candidate requests (a-inj / q-inj evaluation of the
   knowledge-graph queries, containment pairs, q-inj optimization); the
   pin file picks the replayed pool from them. *)
type request = {
  op : Serve.Protocol.op;
  sem : Semantics.t;
  query : string option;
  lhs : string option;
  rhs : string option;
}

let request_text r =
  String.concat "\t"
    [
      Serve.Protocol.op_to_string r.op;
      Semantics.to_string r.sem;
      Option.value r.query ~default:"";
      Option.value r.lhs ~default:"";
      Option.value r.rhs ~default:"";
    ]

let serve_candidates () =
  let _, queries = kg_graph () in
  let evals =
    List.concat_map
      (fun (_, q) ->
        List.map
          (fun sem ->
            { op = Serve.Protocol.Eval; sem; query = Some (Crpq.to_string q); lhs = None; rhs = None })
          [ Semantics.A_inj; Semantics.Q_inj ])
      queries
  in
  let contains =
    List.filter_map
      (fun i ->
        Option.map
          (fun (sem, q1, q2) ->
            {
              op = Serve.Protocol.Contain;
              sem;
              query = None;
              lhs = Some (Crpq.to_string q1);
              rhs = Some (Crpq.to_string q2);
            })
          (contain_pair (1_000_000 + i)))
      (List.init 200 Fun.id)
  in
  let optimizes =
    List.init 200 (fun i ->
        let rng = Random.State.make [| 14; i |] in
        let q =
          Qgen.random_crpq ~rng ~shape:Qgen.Chain ~labels:[ "a"; "b" ] ~nvars:3
            ~natoms:(2 + (i mod 2)) ~arity:0 ~cls:Crpq.Class_crpq ()
        in
        {
          op = Serve.Protocol.Optimize;
          sem = Semantics.Q_inj;
          query = Some (Crpq.to_string q);
          lhs = None;
          rhs = None;
        })
  in
  Array.of_list (evals @ contains @ optimizes)
