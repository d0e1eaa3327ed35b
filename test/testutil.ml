(* Shared generators and helpers for the test suite. *)

(* INJCRPQ_OPTIMIZE=on forces the certified-optimizer pre-pass into
   every Eval / Containment entry point for the whole test process.
   CI runs a tier-1 leg with it set: since applied rewrites are
   containment-certified, the suite must pass unchanged. *)
let install_env_preprocessor () =
  match Sys.getenv_opt "INJCRPQ_OPTIMIZE" with
  | Some ("on" | "1" | "true") -> Analysis.install_preprocessor ()
  | _ -> Analysis.uninstall_preprocessor ()

let () = install_env_preprocessor ()

(* Deterministic qcheck seeding: QCHECK_SEED pins the whole run;
   otherwise one seed is drawn per process.  Every qtest derives its
   random state from this seed, and a failing test prints the seed so
   the counterexample can be replayed with QCHECK_SEED=<n>. *)
let seed =
  match Option.bind (Sys.getenv_opt "QCHECK_SEED") int_of_string_opt with
  | Some n -> n
  | None ->
    Random.self_init ();
    Random.int 1_000_000_000

let rng_of_seed () = Random.State.make [| seed |]

let qtest ?(count = 100) name gen prop =
  let test_name, speed, run =
    QCheck_alcotest.to_alcotest ~rand:(rng_of_seed ())
      (QCheck2.Test.make ~count ~name gen prop)
  in
  ( test_name,
    speed,
    fun arg ->
      try run arg
      with e ->
        Printf.eprintf "[qcheck] %s failed; reproduce with QCHECK_SEED=%d\n%!"
          name seed;
        raise e )

(* ---------------- regex generators ---------------- *)

let gen_symbol = QCheck2.Gen.oneofl [ "a"; "b"; "c" ]

let gen_regex ?(max_depth = 3) ?(cls = Crpq.Class_crpq) () =
  let open QCheck2.Gen in
  let rec go depth =
    if depth = 0 || cls = Crpq.Class_cq then map Regex.sym gen_symbol
    else begin
      let sub = go (depth - 1) in
      let base =
        [
          (3, map Regex.sym gen_symbol);
          (2, map2 Regex.seq sub sub);
          (2, map2 Regex.alt sub sub);
          (1, map Regex.opt sub);
          (1, return Regex.eps);
        ]
      in
      let starred =
        match cls with
        | Crpq.Class_crpq ->
          [ (1, map Regex.star sub); (1, map Regex.plus sub) ]
        | Crpq.Class_fin | Crpq.Class_cq -> []
      in
      frequency (base @ starred)
    end
  in
  go max_depth

let gen_word ?(max_len = 6) () =
  QCheck2.Gen.(list_size (int_bound max_len) gen_symbol)

(* ---------------- graph generators ---------------- *)

let gen_graph ?(max_nodes = 5) ?(labels = [ "a"; "b"; "c" ]) () =
  let open QCheck2.Gen in
  let* n = int_range 1 max_nodes in
  let gen_edge =
    let* u = int_bound (n - 1) in
    let* v = int_bound (n - 1) in
    let* l = oneofl labels in
    return (u, l, v)
  in
  let* edges = list_size (int_bound (3 * n)) gen_edge in
  return (Graph.make ~nnodes:n edges)

(* ---------------- query generators ---------------- *)

let gen_crpq ?(cls = Crpq.Class_crpq) ?(max_atoms = 3) ?(max_vars = 3)
    ?(arity = 0) () =
  let open QCheck2.Gen in
  let* nvars = int_range 2 max_vars in
  let var i = Printf.sprintf "v%d" i in
  let gen_atom =
    let* s = int_bound (nvars - 1) in
    let* t = int_bound (nvars - 1) in
    let* lang = gen_regex ~max_depth:2 ~cls () in
    return (Crpq.atom (var s) lang (var t))
  in
  let* natoms = int_range 1 max_atoms in
  let* atoms = list_repeat natoms gen_atom in
  let free = List.init arity (fun i -> var (i mod nvars)) in
  return (Crpq.make ~free atoms)

let gen_cq ?(max_atoms = 4) ?(max_vars = 4) ?(arity = 0) () =
  let open QCheck2.Gen in
  let* q = gen_crpq ~cls:Crpq.Class_cq ~max_atoms ~max_vars ~arity () in
  match Crpq.to_cq q with
  | Some cq -> return cq
  | None -> assert false

(* A bit-row relation in the boolean shape of [Path_oracle.reach_relation]
   and [Bulk_rpq.reach_relation]: a (max n 1)² matrix. *)
let bools_of_rows rel =
  let n = Bitmatrix.rows rel in
  let b = Array.make_matrix (max n 1) (max n 1) false in
  for u = 0 to n - 1 do
    Bitmatrix.iter_row rel u (fun v -> b.(u).(v) <- true)
  done;
  b

(* ---------------- pretty-printers for qcheck messages ------------- *)

let print_regex = Regex.to_string

let print_graph g = Format.asprintf "%a" Graph.pp g

let print_crpq = Crpq.to_string

let print_pair_crpq (q1, q2) =
  Printf.sprintf "Q1 = %s ; Q2 = %s" (Crpq.to_string q1) (Crpq.to_string q2)
