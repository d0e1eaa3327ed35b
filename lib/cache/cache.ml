let enabled = ref true
let is_enabled () = !enabled
let set_enabled b = enabled := b

(* registry of per-table clear hooks, for [clear_all] *)
let registry_mu = Mutex.create ()
let clearers : (unit -> unit) list ref = ref []

let register_clearer f =
  Mutex.lock registry_mu;
  clearers := f :: !clearers;
  Mutex.unlock registry_mu

let clear_all () =
  Mutex.lock registry_mu;
  let fs = !clearers in
  Mutex.unlock registry_mu;
  List.iter (fun f -> f ()) fs

(* Chaos bypass: cached hits would skip the construction-internal guard
   sites that fault injection targets, so an armed Chaos disables the
   tables (the wrapper checkpoint alone still fires). *)
let bypass () = (not !enabled) || Guard.Chaos.active ()

module Memo (K : Hashtbl.HashedType) = struct
  module L = Lru.Make (K)

  type 'a t = {
    lru : 'a L.t;
    mu : Mutex.t;
    site : string option;
    name : string;
    hits : Obs.Metrics.counter;
    misses : Obs.Metrics.counter;
    evictions : Obs.Metrics.counter;
  }

  let create ?(cap = 512) ?site name =
    let t =
      {
        lru = L.create ~cap;
        mu = Mutex.create ();
        site;
        name;
        hits = Obs.Metrics.counter ("cache." ^ name ^ ".hits");
        misses = Obs.Metrics.counter ("cache." ^ name ^ ".misses");
        evictions = Obs.Metrics.counter ("cache." ^ name ^ ".evictions");
      }
    in
    register_clearer (fun () ->
        Mutex.lock t.mu;
        L.clear t.lru;
        Mutex.unlock t.mu);
    t

  let find_or_add t k f =
    (match t.site with Some s -> Guard.checkpoint s | None -> ());
    if bypass () then f ()
    else begin
      Mutex.lock t.mu;
      let cached = L.find_opt t.lru k in
      Mutex.unlock t.mu;
      match cached with
      | Some v ->
        Obs.Metrics.incr t.hits;
        v
      | None ->
        Obs.Metrics.incr t.misses;
        (* computed outside the lock: a Guard.Trip propagates without
           touching the table, and concurrent duplicate work is benign *)
        let v = f () in
        Mutex.lock t.mu;
        let evicted = L.add t.lru k v in
        Mutex.unlock t.mu;
        if evicted > 0 then begin
          Obs.Metrics.add t.evictions evicted;
          if Obs.Events.enabled () then
            Obs.Events.emit Obs.Events.Debug "cache.eviction"
              [
                ("table", Obs.Json.String t.name);
                ("evicted", Obs.Json.Int evicted);
              ]
        end;
        v
    end

  let clear t =
    Mutex.lock t.mu;
    L.clear t.lru;
    Mutex.unlock t.mu
end
