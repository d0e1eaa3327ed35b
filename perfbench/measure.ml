(* Timing, statistics and the in-memory span recorder of the benchmark. *)

let now_ns () = Obs.Clock.now_ns ()

let ms_between t0 t1 = Int64.to_float (Int64.sub t1 t0) /. 1e6

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

(* Linear interpolation between closest ranks (the numpy default), so a
   percentile that falls between two latency modes reads as a value in
   the gap, which the shape check below then catches. *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then nan
  else begin
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))
  end

let sorted_copy a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  s

let median a = percentile (sorted_copy a) 0.5

(* Latency histogram in quarter-decade bins: bin [k] holds samples in
   [10^(k/4), 10^((k+1)/4)) milliseconds. *)
let bin_of ms = int_of_float (Float.floor (4.0 *. Float.log10 (Float.max ms 1e-6)))

let bin_lo k = 10.0 ** (float_of_int k /. 4.0)

let histogram sorted =
  let tbl = Hashtbl.create 16 in
  Array.iter
    (fun ms ->
      let k = bin_of ms in
      Hashtbl.replace tbl k (1 + Option.value (Hashtbl.find_opt tbl k) ~default:0))
    sorted;
  List.sort compare (Hashtbl.fold (fun k c acc -> (k, c) :: acc) tbl [])

let pp_histogram ppf sorted =
  let n = Array.length sorted in
  List.iter
    (fun (k, c) ->
      Format.fprintf ppf "  [%9.3f, %9.3f) ms %6d %s@." (bin_lo k)
        (bin_lo (k + 1))
        c
        (String.make (max 1 (c * 50 / max 1 n)) '#'))
    (histogram sorted)

(* A percentile sits between two modes when the samples on either side
   of it are more than half a decade apart: the distribution has an
   empty gap there, and the percentile moves by the gap's width when a
   few ops change side. *)
let between_modes sorted p =
  let below = ref neg_infinity and above = ref infinity in
  Array.iter
    (fun x ->
      if x <= p && x > !below then below := x;
      if x >= p && x < !above then above := x)
    sorted;
  !below > 0.0 && !above /. !below > Float.sqrt 10.0

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

(* Spans are recorded from the benchmark's own code around each call
   into a library layer.  They live in memory (a growable array) and are
   written out once the run ends. *)
type span = {
  id : int;
  parent : int;  (** -1 for an op span *)
  op : int;  (** the op span's id; shared by every span of one op *)
  name : string;
  start_ns : int64;
  end_ns : int64;
}

type recorder = { mutable spans : span array; mutable len : int }

let recorder () = { spans = [||]; len = 0 }

let push r s =
  if r.len = Array.length r.spans then begin
    let bigger = Array.make (max 1024 (2 * r.len)) s in
    Array.blit r.spans 0 bigger 0 r.len;
    r.spans <- bigger
  end;
  r.spans.(r.len) <- s;
  r.len <- r.len + 1

let open_op r name t0 =
  let id = r.len in
  push r { id; parent = -1; op = id; name; start_ns = t0; end_ns = t0 };
  id

let close_op r id t1 = r.spans.(id) <- { (r.spans.(id)) with end_ns = t1 }

let child r op name t0 t1 =
  push r { id = r.len; parent = op; op; name; start_ns = t0; end_ns = t1 }

(* [layer r op name g] runs [g] inside a layer span under op [op]. *)
let layer r op name g =
  let t0 = now_ns () in
  let v = g () in
  child r op name t0 (now_ns ());
  v

(* [op_span r name f] records an op span around [f id]. *)
let op_span r name f =
  let id = open_op r name (now_ns ()) in
  let v = f id in
  close_op r id (now_ns ());
  v

let spans r = Array.sub r.spans 0 r.len

let duration_ms s = ms_between s.start_ns s.end_ns

(* Per-layer totals (ms), keyed by span name. *)
let layer_totals spans =
  let tbl = Hashtbl.create 16 in
  Array.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace tbl s.name
          (duration_ms s +. Option.value (Hashtbl.find_opt tbl s.name) ~default:0.0))
    spans;
  fun k -> Option.value (Hashtbl.find_opt tbl k) ~default:0.0

(* The coverage check ("layers add up to the whole").  Returns the time
   (ns) from [t0] that the op spans cover (their union, since pipelined
   ops overlap), and every op whose layer spans overlap each other or
   escape the op: without such ops, each op's layer self times plus its
   own add up to its span. *)
let coverage spans ~t0 =
  let ops = List.filter (fun s -> s.parent < 0) (Array.to_list spans) in
  let ops = List.sort (fun a b -> Int64.compare a.start_ns b.start_ns) ops in
  let covered, _ =
    List.fold_left
      (fun (acc, reach) s ->
        let lo = if Int64.compare s.start_ns reach > 0 then s.start_ns else reach in
        if Int64.compare s.end_ns lo > 0 then (Int64.add acc (Int64.sub s.end_ns lo), s.end_ns)
        else (acc, reach))
      (0L, t0) ops
  in
  let children = Hashtbl.create 1024 in
  Array.iter (fun s -> if s.parent >= 0 then Hashtbl.add children s.parent s) spans;
  let bad = ref [] in
  List.iter
    (fun op ->
      let cs =
        List.sort (fun a b -> Int64.compare a.start_ns b.start_ns) (Hashtbl.find_all children op.id)
      in
      ignore
        (List.fold_left
           (fun last c ->
             if Int64.compare c.start_ns last < 0 || Int64.compare c.end_ns op.end_ns > 0 then
               bad := Printf.sprintf "op %d: layer %s overlaps or escapes its op" op.id c.name :: !bad;
             c.end_ns)
           op.start_ns cs))
    ops;
  (Int64.to_float covered, List.rev !bad)

let write_jsonl path spans =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Array.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\":%d,\"parent\":%s,\"op\":%d,\"name\":%S,\"start_ns\":%Ld,\"end_ns\":%Ld}\n"
            s.id
            (if s.parent < 0 then "null" else string_of_int s.parent)
            s.op s.name s.start_ns s.end_ns)
        spans)

(* ------------------------------------------------------------------ *)
(* Process-level measurements                                          *)
(* ------------------------------------------------------------------ *)

(* VmHWM: the resident-set high-water mark of this process, in MiB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go () =
        match input_line ic with
        | line when String.starts_with ~prefix:"VmHWM:" line ->
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
              float_of_int kb /. 1024.0)
        | _ -> go ()
        | exception End_of_file -> nan
      in
      go ())
