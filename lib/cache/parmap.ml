let default =
  ref
    (match Sys.getenv_opt "INJCRPQ_JOBS" with
    | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> n
      | _ -> 1)
    | None -> 1)

let default_jobs () = !default

let set_default_jobs n =
  if n < 1 then invalid_arg "Parmap.set_default_jobs: jobs must be positive";
  default := n

(* nesting flag: a Parmap call made from inside a worker runs
   sequentially instead of spawning a second generation of domains *)
let in_worker : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

let resolve = function
  | Some j -> max j 1
  | None -> !default

(* Spawn [j] domains running [work]; each worker inherits the parent's
   ambient guard, grafts its trace spans under the span that was active
   at fan-out, and records the first exception, re-raised after the
   join so no domain is ever abandoned. *)
let fan_out j work =
  let error = Atomic.make None in
  let parent_guard = Guard.active () in
  let parent_span = Obs.Trace.fork () in
  let body () =
    Domain.DLS.set in_worker true;
    let work () = Obs.Trace.adopt parent_span work in
    try
      match parent_guard with
      | Some g -> Guard.with_guard g work
      | None -> work ()
    with e -> ignore (Atomic.compare_and_set error None (Some e))
  in
  let doms = Array.init j (fun _ -> Domain.spawn body) in
  Array.iter Domain.join doms;
  match Atomic.get error with Some e -> raise e | None -> ()

let map ?jobs f xs =
  let n = List.length xs in
  let j = min (resolve jobs) n in
  if j <= 1 || Domain.DLS.get in_worker then List.map f xs
  else begin
    let input = Array.of_list xs in
    let out = Array.make n None in
    let next = Atomic.make 0 in
    let work () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          out.(i) <- Some (f input.(i));
          loop ()
        end
      in
      loop ()
    in
    fan_out j work;
    List.init n (fun i ->
        match out.(i) with Some v -> v | None -> assert false)
  end

let find_mapi ?jobs f xs =
  let n = List.length xs in
  let j = min (resolve jobs) n in
  if j <= 1 || Domain.DLS.get in_worker then begin
    let rec go i = function
      | [] -> None
      | x :: rest -> (
        match f i x with Some v -> Some (i, v) | None -> go (i + 1) rest)
    in
    go 0 xs
  end
  else begin
    let input = Array.of_list xs in
    let out = Array.make n None in
    (* lowest index with a match so far; indices above it are skipped,
       indices below it are always evaluated, so the final answer is the
       same lowest-index match the sequential scan finds *)
    let best = Atomic.make max_int in
    let next = Atomic.make 0 in
    let work () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          (if i < Atomic.get best then
             match f i input.(i) with
             | Some v ->
               out.(i) <- Some v;
               let rec lower () =
                 let b = Atomic.get best in
                 if i < b && not (Atomic.compare_and_set best b i) then
                   lower ()
               in
               lower ()
             | None -> ());
          loop ()
        end
      in
      loop ()
    in
    fan_out j work;
    let rec first i =
      if i >= n then None
      else match out.(i) with Some v -> Some (i, v) | None -> first (i + 1)
    in
    first 0
  end
