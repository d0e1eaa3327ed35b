(* [main.exe pin <workload>]: compute each pool entry's expected answer
   on the reference paths and write the workload's pin file.  This runs
   once, offline; the timed runs only read the pins. *)

let with_bulk mode f =
  let old = Bulk_rpq.current_mode () in
  Bulk_rpq.set_mode mode;
  Fun.protect ~finally:(fun () -> Bulk_rpq.set_mode old) f

let reference_check q g tuple = with_bulk Bulk_rpq.Off (fun () -> Eval.check Semantics.St q g tuple)

(* ------------------------------------------------------------------ *)
(* st-gnm: point checks, half answers and half non-answers             *)
(* ------------------------------------------------------------------ *)

let gnm_ops = 64

(* Relations denser than this share of all pairs come from labels that
   percolate into a giant component; such atoms cost an order of
   magnitude more than the rest and are left out of the pool so that
   per-op latency stays in one mode. *)
let max_density = 0.125

let count_pairs rel = Array.fold_left (fun acc row -> Array.fold_left (fun a b -> if b then a + 1 else a) acc row) 0 rel

(* Tuples of a chain [v0 -> v1 -> ... -> vk] with free [(v0, v1)] are
   chosen from the atoms' relations (bulk engine), then confirmed on the
   reference path. *)
let pin_gnm () =
  let g = Pools.gnm_graph () in
  let n = Graph.nnodes g in
  let rng = Random.State.make [| 21 |] in
  let rec go i acc k =
    if k = gnm_ops then List.rev acc
    else
      match Pools.gnm_query i with
      | None -> go (i + 1) acc k
      | Some q ->
        let natoms = Crpq.size q in
        let rel j =
          let a = List.find (fun (a : Crpq.atom) -> a.Crpq.src = Printf.sprintf "v%d" j) q.Crpq.atoms in
          Bulk_rpq.reach_relation g (Crpq.nfa a.Crpq.lang)
        in
        let rels = Array.init natoms rel in
        if Array.exists (fun r -> float_of_int (count_pairs r) > max_density *. float_of_int (n * n)) rels
        then go (i + 1) acc k
        else begin
          (* live.(j): nodes from which atoms j.. can be completed *)
          let live = Array.make (natoms + 1) (Array.make n true) in
          for j = natoms - 1 downto 1 do
            live.(j) <- Array.init n (fun x -> Array.exists2 (fun r l -> r && l) rels.(j).(x) live.(j + 1))
          done;
          let answer u v = rels.(0).(u).(v) && live.(1).(v) in
          let want = k mod 2 = 0 in
          let rec pick tries =
            if tries = 0 then None
            else
              let u = Random.State.int rng n in
              if want then
                let vs = List.filter (answer u) (List.init n Fun.id) in
                if vs = [] then pick (tries - 1)
                else Some (u, List.nth vs (Random.State.int rng (List.length vs)))
              else
                let v = Random.State.int rng n in
                if answer u v then pick (tries - 1) else Some (u, v)
          in
          match pick 500 with
          | None -> go (i + 1) acc k
          | Some (u, v) ->
            let expected = reference_check q g [ u; v ] in
            if expected <> want then
              failwith (Printf.sprintf "st-gnm %d: reference check disagrees with the relations" i);
            let tuple = Printf.sprintf "%d,%d" u v in
            let p =
              {
                Pools.idx = i;
                key = Pools.digest (Crpq.to_string q ^ "\t" ^ tuple);
                fields = [ tuple; string_of_bool expected ];
              }
            in
            go (i + 1) (p :: acc) (k + 1)
        end
  in
  go 0 [] 0

(* ------------------------------------------------------------------ *)
(* contain: exact verdicts, not-contained cross-checked                *)
(* ------------------------------------------------------------------ *)

let contain_ops = 16000

(* Pairs whose decision, from cold caches, allocates more than this many
   words (the long tail of the exhaustive searches, up to seconds and
   hundreds of MiB each) are left out of the pool: a handful of them
   would outweigh thousands of ordinary pairs in a run.  The cut is by
   work done, not by time, so the pool is the same on every machine;
   fuel bounds the time spent deciding the excluded pairs here. *)
let contain_words = 10_000_000

let contain_fuel = 20_000

(* A not-contained verdict must be confirmed by the bounded
   counterexample search, or failing that by re-checking the witness. *)
let cross_check sem q1 q2 verdict =
  match verdict with
  | Containment.Not_contained w -> (
    match Containment.bounded sem ~max_len:4 q1 q2 with
    | Containment.Not_contained _ -> true
    | Containment.Contained -> false
    | Containment.Unknown _ -> Containment.is_counterexample sem q2 w.Containment.expansion)
  | _ -> true

(* Cold-cache allocation of one call, in words: the work measure the
   pool cuts use. *)
let cold_words f =
  Cache.clear_all ();
  let a0 = Gc.allocated_bytes () in
  let v = f () in
  (v, (Gc.allocated_bytes () -. a0) /. 8.0)

let decide_pin ?(min_words = 0.0) sem q1 q2 =
  let verdict, words =
    cold_words (fun () -> Containment.decide ~guard:(Guard.create ~fuel:contain_fuel ()) sem q1 q2)
  in
  match verdict with
  | Containment.Unknown _ -> None
  | _ when words < min_words || words > float_of_int contain_words -> None
  | v ->
    if not (cross_check sem q1 q2 v) then
      failwith
        (Printf.sprintf "containment verdict not confirmed by bounded search: %s"
           (Pools.contain_text (sem, q1, q2)));
    Some (Pools.verdict_sig v)

let pin_contain () =
  let rec go i acc k =
    if k = contain_ops then List.rev acc
    else
      match Pools.contain_pair i with
      | None -> go (i + 1) acc k
      | Some ((sem, q1, q2) as pair) -> (
        match decide_pin sem q1 q2 with
        | None -> go (i + 1) acc k
        | Some v ->
          let p = { Pools.idx = i; key = Pools.digest (Pools.contain_text pair); fields = [ v ] } in
          go (i + 1) (p :: acc) (k + 1))
  in
  go 0 [] 0

(* ------------------------------------------------------------------ *)
(* serve: the request pool                                             *)
(* ------------------------------------------------------------------ *)

let serve_per_kind = 8

(* Containment and optimize requests cheaper than this are left out:
   sub-millisecond requests would form a second latency mode two
   decades below the evaluations. *)
let serve_min_words = 100_000.0

let serve_expected g (r : Pools.request) =
  let parse = function Some s -> Crpq.parse s | None -> assert false in
  match r.op with
  | Serve.Protocol.Eval ->
    Some (Pools.answers_sig (with_bulk Bulk_rpq.Off (fun () -> Eval.eval r.sem (parse r.query) g)))
  | Serve.Protocol.Contain -> decide_pin ~min_words:serve_min_words r.sem (parse r.lhs) (parse r.rhs)
  | Serve.Protocol.Optimize ->
    let (q', _), words =
      cold_words (fun () -> Analysis.optimize ~sem:r.sem ~bound:4 (parse r.query))
    in
    if words < serve_min_words || words > float_of_int contain_words then None
    else Some (Crpq.to_string q')
  | _ -> assert false

let pin_serve () =
  let g, _ = Pools.kg_graph () in
  let taken = Hashtbl.create 4 in
  let pins = ref [] in
  Array.iteri
    (fun i (r : Pools.request) ->
      let kind = Serve.Protocol.op_to_string r.op in
      let have = Option.value (Hashtbl.find_opt taken kind) ~default:0 in
      if have < serve_per_kind then
        match serve_expected g r with
        | None -> ()
        | Some expected ->
          Hashtbl.replace taken kind (have + 1);
          pins := { Pools.idx = i; key = Pools.digest (Pools.request_text r); fields = [ expected ] } :: !pins)
    (Pools.serve_candidates ());
  List.rev !pins

let run w =
  Obs.Metrics.set_enabled false;
  let pins =
    match w with
    | "st-gnm" -> pin_gnm ()
    | "contain" -> pin_contain ()
    | "serve" -> pin_serve ()
    | _ -> failwith ("unknown workload " ^ w)
  in
  Pools.write_pins w
    ~header:(Printf.sprintf "expected answers of the %s pool; regenerate with `pin %s`" w w)
    pins;
  Printf.printf "wrote %d pins to %s\n" (List.length pins) (Pools.pin_path w)
