type node = int

type edge = node * Word.symbol * node

(* Labels are interned to dense ids [0 .. nlabels-1] at construction
   (sorted order, so ids are stable for a given edge set).  The hot
   paths — morphism search and product BFS — index the adjacency by
   label id and never compare strings; edge membership is a binary
   search of an ascending successor array. *)
type t = {
  uid : int; (* process-unique identity, for keying derived-structure caches *)
  nnodes : int;
  nedges : int;
  edges : edge list; (* sorted, duplicate-free *)
  labels : Word.symbol array; (* label id -> symbol, sorted *)
  out : (Word.symbol * node) list array;
  in_ : (Word.symbol * node) list array;
  out_l : node array array array; (* out_l.(u).(a): successors, ascending *)
  in_l : node array array array; (* in_l.(v).(a): predecessors, ascending *)
}

(* the index of [a] in the sorted [labels.(lo .. hi - 1)], or -1 *)
let rec find_label_in labels a lo hi =
  if lo >= hi then -1
  else begin
    let mid = (lo + hi) / 2 in
    let c = String.compare a labels.(mid) in
    if c = 0 then mid
    else if c < 0 then find_label_in labels a lo mid
    else find_label_in labels a (mid + 1) hi
  end

let find_label labels a = find_label_in labels a 0 (Array.length labels)

(* [v] is in the ascending [nodes.(lo .. hi - 1)] *)
let rec mem_sorted (nodes : node array) v lo hi =
  lo < hi
  && begin
       let mid = (lo + hi) / 2 in
       nodes.(mid) = v
       || if nodes.(mid) < v then mem_sorted nodes v (mid + 1) hi
          else mem_sorted nodes v lo mid
     end

let uid_counter = Atomic.make 0

let make ~nnodes edge_list =
  let edges = List.sort_uniq Stdlib.compare edge_list in
  List.iter
    (fun (u, _, v) ->
      if u < 0 || u >= nnodes || v < 0 || v >= nnodes then
        invalid_arg "Graph.make: node out of range")
    edges;
  let labels =
    Array.of_list (List.sort_uniq String.compare (List.map (fun (_, a, _) -> a) edges))
  in
  let nl = Array.length labels in
  let n = max nnodes 1 in
  let out = Array.make n [] in
  let in_ = Array.make n [] in
  (* accumulate per-(node, label) successor/predecessor lists; the edge
     list is ascending, so prepending and reversing keeps them sorted *)
  let nlp = max nl 1 in
  let out_acc = Array.make (n * nlp) [] in
  let in_acc = Array.make (n * nlp) [] in
  List.iter
    (fun (u, a, v) ->
      out.(u) <- (a, v) :: out.(u);
      in_.(v) <- (a, u) :: in_.(v);
      let ai = find_label labels a in
      out_acc.((u * nlp) + ai) <- v :: out_acc.((u * nlp) + ai);
      in_acc.((v * nlp) + ai) <- u :: in_acc.((v * nlp) + ai))
    edges;
  let pack acc w =
    Array.init nl (fun ai -> Array.of_list (List.rev acc.((w * nlp) + ai)))
  in
  let out_l = Array.init n (fun u -> pack out_acc u) in
  let in_l = Array.init n (fun v -> pack in_acc v) in
  { uid = Atomic.fetch_and_add uid_counter 1; nnodes; nedges = List.length edges; edges;
    labels; out; in_; out_l; in_l }

let of_edges edge_list =
  let nnodes =
    List.fold_left (fun m (u, _, v) -> max m (max u v + 1)) 0 edge_list
  in
  make ~nnodes edge_list

let empty = make ~nnodes:0 []

let uid g = g.uid

let nnodes g = g.nnodes

let nedges g = g.nedges

let nodes g = List.init g.nnodes (fun i -> i)

let iter_nodes g f =
  for u = 0 to g.nnodes - 1 do
    f u
  done

let edges g = g.edges

let out g u = if u < 0 || u >= g.nnodes then [] else g.out.(u)

let in_ g v = if v < 0 || v >= g.nnodes then [] else g.in_.(v)

let nlabels g = Array.length g.labels

let label_id g a =
  match find_label g.labels a with -1 -> None | ai -> Some ai

let label_name g a = g.labels.(a)

let no_nodes : node array = [||]

let succ_ids g u a =
  if u < 0 || u >= g.nnodes then no_nodes else g.out_l.(u).(a)

let pred_ids g v a =
  if v < 0 || v >= g.nnodes then no_nodes else g.in_l.(v).(a)

let mem_edge_id g u a v =
  u >= 0 && u < g.nnodes && a >= 0 && a < Array.length g.labels
  && mem_sorted g.out_l.(u).(a) v 0 (Array.length g.out_l.(u).(a))

let mem_edge g u a v =
  match label_id g a with None -> false | Some ai -> mem_edge_id g u ai v

let out_degree g u = List.length (out g u)

let in_degree g u = List.length (in_ g u)

let succ g u a =
  List.filter_map (fun (b, v) -> if String.equal a b then Some v else None) (out g u)

let alphabet g = Array.to_list g.labels

let add_edges g new_edges =
  let nnodes =
    List.fold_left (fun m (u, _, v) -> max m (max u v + 1)) g.nnodes new_edges
  in
  make ~nnodes (new_edges @ g.edges)

let disjoint_union g h =
  let shift = g.nnodes in
  let shifted = List.map (fun (u, a, v) -> (u + shift, a, v + shift)) h.edges in
  (make ~nnodes:(g.nnodes + h.nnodes) (g.edges @ shifted), shift)

let induced g keep =
  let remap = Array.make (max g.nnodes 1) (-1) in
  let count = ref 0 in
  for u = 0 to g.nnodes - 1 do
    if keep u then begin
      remap.(u) <- !count;
      incr count
    end
  done;
  let edges =
    List.filter_map
      (fun (u, a, v) ->
        if keep u && keep v then Some (remap.(u), a, remap.(v)) else None)
      g.edges
  in
  (make ~nnodes:!count edges, remap)

let components g =
  let seen = Array.make (max g.nnodes 1) false in
  let comp u0 =
    let acc = ref [] in
    let rec go u =
      if not seen.(u) then begin
        seen.(u) <- true;
        acc := u :: !acc;
        List.iter (fun (_, v) -> go v) g.out.(u);
        List.iter (fun (_, v) -> go v) g.in_.(u)
      end
    in
    go u0;
    List.rev !acc
  in
  let res = ref [] in
  for u = 0 to g.nnodes - 1 do
    if not seen.(u) then res := comp u :: !res
  done;
  List.rev !res

let is_connected g = List.length (components g) <= 1

let equal g h = g.nnodes = h.nnodes && g.edges = h.edges

let pp ppf g =
  Format.fprintf ppf "@[<v>graph: %d nodes@," g.nnodes;
  List.iter
    (fun (u, a, v) -> Format.fprintf ppf "%d -%a-> %d@," u Word.pp_symbol a v)
    g.edges;
  Format.fprintf ppf "@]"

let to_dot ?(name = "G") g =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "digraph %s {\n" name);
  List.iter
    (fun u -> Buffer.add_string buf (Printf.sprintf "  n%d [label=\"%d\"];\n" u u))
    (nodes g);
  List.iter
    (fun (u, a, v) ->
      Buffer.add_string buf (Printf.sprintf "  n%d -> n%d [label=\"%s\"];\n" u v a))
    g.edges;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
