type t = Regex.t

let to_crpq lang = Crpq.make ~free:[ "x"; "y" ] [ Crpq.atom "x" lang "y" ]

let pairs_of_relation g rel =
  let acc = ref [] in
  let n = Graph.nnodes g in
  for u = n - 1 downto 0 do
    for v = n - 1 downto 0 do
      if rel u v then acc := (u, v) :: !acc
    done
  done;
  !acc

let eval_standard lang g =
  let rel =
    Bulk_rpq.with_caller "rpq" (fun () -> Bulk_rpq.st_relation g (Crpq.nfa lang))
  in
  pairs_of_relation g (fun u v -> rel.(u).(v))

let eval_simple_path lang g =
  let rel = Path_search.simple_reach_relation g (Crpq.nfa lang) in
  pairs_of_relation g (fun u v -> rel.(u).(v))

let eval_trail lang g =
  let s = Path_search.simple_searcher g (Crpq.nfa lang) in
  pairs_of_relation g (fun u v -> Path_search.find_trail_with s ~src:u ~dst:v <> None)

let check_standard lang g u v = Path_search.exists_path g (Crpq.nfa lang) ~src:u ~dst:v

let check_simple_path lang g u v =
  Path_search.exists_simple g (Crpq.nfa lang) ~src:u ~dst:v

let check_trail lang g u v = Path_search.exists_trail g (Crpq.nfa lang) ~src:u ~dst:v

let witness_simple_path lang g u v =
  Path_search.find_simple g (Crpq.nfa lang) ~src:u ~dst:v

let contained l1 l2 = Dfa.regex_included l1 l2
