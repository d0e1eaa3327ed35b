(* The serving engine.  See server.mli for the architecture overview.

   Robustness discipline, in order of the request path:
   - frames that do not parse answer a structured E903 error and leave
     the connection usable;
   - the serve.accept chaos site can shed any parsed request;
   - per-session token buckets reject with retry_after_ms;
   - the bounded queue sheds instead of growing;
   - workers run every request under a fresh capped Guard inside a
     Retry boundary, so transient (chaos) trips are retried with
     jittered backoff and real budget trips become [unknown] responses;
   - graceful drain closes admission, lets the pool finish, and cancels
     stragglers through their Cancel tokens after [drain_ms]. *)

type config = {
  graphs : (string * Graph.t) list;
  workers : int;
  queue_bound : int;
  timeout_ms : int;
  max_steps : int option;
  quota : Quota.policy option;
  retry : Guard.Retry.policy;
  drain_ms : int;
  answer_cap : int;
}

let config ?(workers = 2) ?(queue_bound = 64) ?(timeout_ms = 5000) ?max_steps
    ?quota ?(retry = Guard.Retry.default) ?(drain_ms = 2000)
    ?(answer_cap = 1000) ~graphs () =
  let pos what n =
    if n < 1 then invalid_arg (Printf.sprintf "Server.config: %s %d < 1" what n)
  in
  pos "workers" workers;
  pos "queue_bound" queue_bound;
  pos "timeout_ms" timeout_ms;
  pos "drain_ms" drain_ms;
  pos "answer_cap" answer_cap;
  (match max_steps with Some n -> pos "max_steps" n | None -> ());
  {
    graphs;
    workers;
    queue_bound;
    timeout_ms;
    max_steps;
    quota;
    retry;
    drain_ms;
    answer_cap;
  }

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let m_connections = Obs.Metrics.counter "serve.connections"
let m_accepted = Obs.Metrics.counter "serve.accepted"
let m_completed = Obs.Metrics.counter "serve.completed"
let m_shed = Obs.Metrics.counter "serve.shed"
let m_quota_rejected = Obs.Metrics.counter "serve.quota_rejected"
let m_retried = Obs.Metrics.counter "serve.retried"
let m_cancelled = Obs.Metrics.counter "serve.cancelled"
let m_unknown = Obs.Metrics.counter "serve.unknown"
let m_protocol_errors = Obs.Metrics.counter "serve.protocol_errors"
let m_bad_requests = Obs.Metrics.counter "serve.bad_requests"
let m_dropped_replies = Obs.Metrics.counter "serve.dropped_replies"
let m_queue_depth = Obs.Metrics.gauge "serve.queue_depth"
let m_inflight = Obs.Metrics.gauge "serve.inflight"
let m_latency = Obs.Metrics.histogram "serve.latency_us"

(* ------------------------------------------------------------------ *)
(* Connections and jobs                                                *)
(* ------------------------------------------------------------------ *)

type conn = {
  fd : Unix.file_descr;
  rbuf : Buffer.t;
  wmu : Mutex.t;
  mutable alive : bool;
  pending : int Atomic.t;  (* queued jobs not yet answered on this conn *)
}

type job = { jconn : conn; req : Protocol.request; enq_ns : int64 }

type t = {
  cfg : config;
  queue : job Squeue.t;
  quota : Quota.t option;
  stop : bool Atomic.t;
  pipe_r : Unix.file_descr;
  pipe_w : Unix.file_descr;
  next_uid : int Atomic.t;
  inflight : (int, Guard.Cancel.token) Hashtbl.t;
  infl_mu : Mutex.t;
  live_workers : int Atomic.t;
  started_ns : int64;
}

let create cfg =
  (* a server without metrics has no stats endpoint worth the name *)
  Obs.Metrics.set_enabled true;
  let pipe_r, pipe_w = Unix.pipe () in
  {
    cfg;
    queue = Squeue.create ~bound:cfg.queue_bound;
    quota = Option.map Quota.create cfg.quota;
    stop = Atomic.make false;
    pipe_r;
    pipe_w;
    next_uid = Atomic.make 1;
    inflight = Hashtbl.create 64;
    infl_mu = Mutex.create ();
    live_workers = Atomic.make 0;
    started_ns = Obs.Clock.now_ns ();
  }

let draining t = Atomic.get t.stop

let shutdown t =
  if not (Atomic.exchange t.stop true) then begin
    if Obs.Events.enabled () then
      Obs.Events.emit Obs.Events.Info "serve.shutdown" [];
    (* wake the select loop; failure only means it is already gone *)
    try ignore (Unix.write t.pipe_w (Bytes.of_string "x") 0 1)
    with Unix.Unix_error _ -> ()
  end

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

(* approximate percentile from a log2 histogram: the upper edge of the
   first bucket whose cumulative count reaches the rank *)
let histogram_percentile buckets count q =
  if count = 0 then 0
  else begin
    let rank = Float.max 1.0 (Float.ceil (q *. float_of_int count)) in
    let rec go acc = function
      | [] -> 0
      | (k, n) :: rest ->
        let acc = acc + n in
        if float_of_int acc >= rank then (1 lsl (k + 1)) - 1 else go acc rest
    in
    go 0 (List.sort compare buckets)
  end

let stats_body t =
  let snap = Obs.Metrics.snapshot () in
  let serve_fields =
    List.filter_map
      (fun (name, v) ->
        if String.length name >= 6 && String.sub name 0 6 = "serve." then
          match v with
          | Obs.Metrics.Counter c -> Some (name, Obs.Json.Int c)
          | Obs.Metrics.Gauge g -> Some (name, Obs.Json.Int g)
          | Obs.Metrics.Histogram { count; sum; max; buckets } ->
            Some
              ( name,
                Obs.Json.Obj
                  [
                    ("count", Obs.Json.Int count);
                    ("sum", Obs.Json.Int sum);
                    ("max", Obs.Json.Int max);
                    ( "p50",
                      Obs.Json.Int (histogram_percentile buckets count 0.50) );
                    ( "p99",
                      Obs.Json.Int (histogram_percentile buckets count 0.99) );
                  ] )
        else None)
      snap
  in
  [
    ( "uptime_ns",
      Obs.Json.Int (Int64.to_int (Int64.sub (Obs.Clock.now_ns ()) t.started_ns))
    );
    ("queue_depth", Obs.Json.Int (Squeue.length t.queue));
    ("queue_bound", Obs.Json.Int t.cfg.queue_bound);
    ("workers", Obs.Json.Int t.cfg.workers);
    ("live_workers", Obs.Json.Int (Atomic.get t.live_workers));
    ("draining", Obs.Json.Bool (Atomic.get t.stop));
    ( "sessions",
      Obs.Json.Int (match t.quota with None -> 0 | Some q -> Quota.sessions q)
    );
    ("serve", Obs.Json.Obj serve_fields);
    ("metrics", Obs.Metrics.to_json snap);
    ("expo", Obs.Json.String (Obs.Expo.to_prometheus snap));
  ]

(* ------------------------------------------------------------------ *)
(* Response delivery                                                   *)
(* ------------------------------------------------------------------ *)

let write_all fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let rec go off =
    if off < n then begin
      let w = Unix.write fd b off (n - off) in
      go (off + w)
    end
  in
  go 0

let send_json conn json =
  Mutex.lock conn.wmu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock conn.wmu)
    (fun () ->
      if conn.alive then
        try write_all conn.fd (Obs.Json.to_string json ^ "\n")
        with Unix.Unix_error _ ->
          conn.alive <- false;
          Obs.Metrics.incr m_dropped_replies
      else Obs.Metrics.incr m_dropped_replies)

let send conn resp = send_json conn (Protocol.response_to_json resp)

(* ------------------------------------------------------------------ *)
(* The execution engine (one request, already admitted)                *)
(* ------------------------------------------------------------------ *)

let bad_request (req : Protocol.request) msg =
  Obs.Metrics.incr m_bad_requests;
  Protocol.error_response ~id:req.id ~op:req.op ~code:"E904" msg

let resolve_graph t (req : Protocol.request) =
  match (req.graph, t.cfg.graphs) with
  | Some name, graphs -> (
    match List.assoc_opt name graphs with
    | Some g -> Ok g
    | None -> (
      match (name, graphs) with
      | "default", [ (_, g) ] -> Ok g
      | _ ->
        Error
          (Printf.sprintf "unknown graph %S (loaded: %s)" name
             (match graphs with
             | [] -> "none"
             | l -> String.concat ", " (List.map fst l)))))
  | None, [ (_, g) ] -> Ok g
  | None, [] -> Error "no graphs loaded on this server"
  | None, l ->
    Error
      (Printf.sprintf "several graphs loaded (%s): name one with \"graph\""
         (String.concat ", " (List.map fst l)))

let parse_query what = function
  | None -> Error (Printf.sprintf "field %S required for this op" what)
  | Some s -> (
    match Crpq.parse_result s with
    | Ok q -> Ok q
    | Error e ->
      Error (Printf.sprintf "%s: %s" what (Crpq.string_of_parse_error e)))

(* the op body proper; runs inside the request guard, so every decider
   checkpoint below can trip (and the serve.worker site makes the
   serving layer itself chaos-injectable) *)
let exec t (req : Protocol.request) =
  Guard.checkpoint "serve.worker";
  let ok body = Protocol.response ~id:req.id ~op:req.op ~body Protocol.Ok_ in
  match req.op with
  | Protocol.Ping -> ok [ ("pong", Obs.Json.Bool true) ]
  | Protocol.Stats -> ok (stats_body t)
  | Protocol.Eval -> (
    match parse_query "query" req.query with
    | Error msg -> bad_request req msg
    | Ok q -> (
      match resolve_graph t req with
      | Error msg -> bad_request req msg
      | Ok g -> (
        match req.tuple with
        | Some tup ->
          ok
            [
              ("check", Obs.Json.Bool (Eval.check req.sem q g tup));
              ("tuple", Obs.Json.List (List.map (fun n -> Obs.Json.Int n) tup));
            ]
        | None ->
          let answers = Eval.eval req.sem q g in
          let total = List.length answers in
          let shown = List.filteri (fun i _ -> i < t.cfg.answer_cap) answers in
          ok
            [
              ("answers", Obs.Json.Int total);
              ( "tuples",
                Obs.Json.List
                  (List.map
                     (fun tup ->
                       Obs.Json.List (List.map (fun n -> Obs.Json.Int n) tup))
                     shown) );
              ("truncated", Obs.Json.Bool (total > t.cfg.answer_cap));
            ])))
  | Protocol.Contain -> (
    match (parse_query "lhs" req.lhs, parse_query "rhs" req.rhs) with
    | Error msg, _ | _, Error msg -> bad_request req msg
    | Ok q1, Ok q2 -> (
      let strategy = Containment.strategy_name req.sem q1 q2 in
      let v = Containment.decide ~bound:req.bound req.sem q1 q2 in
      let base =
        [
          ("verdict", Obs.Json.String (Containment.verdict_name v));
          ("strategy", Obs.Json.String strategy);
        ]
      in
      match v with
      | Containment.Contained -> ok base
      | Containment.Not_contained w ->
        ok
          (base
          @ [
              ( "counterexample",
                Obs.Json.String
                  (Cq.to_string w.Containment.expansion.Expansion.cq) );
            ])
      | Containment.Unknown r ->
        (* the honest degraded verdict of the exit-code/Unknown contract:
           the decider ran out of budget or has no applicable procedure *)
        Protocol.response ~id:req.id ~op:req.op Protocol.Unknown
          ~body:(base @ [ ("reason", Containment.reason_to_json r) ])))
  | Protocol.Lint -> (
    match parse_query "query" req.query with
    | Error msg -> bad_request req msg
    | Ok q ->
      let graph =
        match req.graph with
        | None -> None
        | Some _ -> Result.to_option (resolve_graph t req)
      in
      let ds = Analysis.lint ~sem:req.sem ~bound:req.bound ?graph q in
      let diags =
        match Obs.Json.parse (Diagnostic.list_to_json ds) with
        | Ok j -> j
        | Error _ -> Obs.Json.List []
      in
      ok
        [
          ("diagnostics", diags);
          ("errors", Obs.Json.Bool (Diagnostic.has_errors ds));
        ])
  | Protocol.Optimize -> (
    match parse_query "query" req.query with
    | Error msg -> bad_request req msg
    | Ok q ->
      let q', report = Analysis.optimize ~sem:req.sem ~bound:req.bound q in
      ok
        [
          ( "result",
            Analysis.optimize_json ~name:"query" ~sem:req.sem ~before:q
              ~after:q' report );
        ])

let unknown_of_trip (req : Protocol.request) (trip : Guard.trip) =
  Protocol.response ~id:req.id ~op:req.op Protocol.Unknown
    ~body:
      [
        ( "reason",
          Obs.Json.Obj
            [
              ("kind", Obs.Json.String (Guard.reason_kind trip.Guard.reason));
              ("site", Obs.Json.String trip.Guard.site);
              ("detail", Obs.Json.String (Guard.trip_to_string trip));
            ] );
      ]

let register_inflight t token =
  let uid = Atomic.fetch_and_add t.next_uid 1 in
  Mutex.lock t.infl_mu;
  Hashtbl.replace t.inflight uid token;
  Mutex.unlock t.infl_mu;
  Obs.Metrics.adjust m_inflight 1;
  uid

let unregister_inflight t uid =
  Mutex.lock t.infl_mu;
  Hashtbl.remove t.inflight uid;
  Mutex.unlock t.infl_mu;
  Obs.Metrics.adjust m_inflight (-1)

let cancel_inflight t =
  Mutex.lock t.infl_mu;
  let tokens = Hashtbl.fold (fun _ tok acc -> tok :: acc) t.inflight [] in
  Mutex.unlock t.infl_mu;
  List.iter Guard.Cancel.cancel tokens

let handle_request t (req : Protocol.request) =
  let cap_min client server =
    match client with None -> server | Some c -> min (max 1 c) server
  in
  let deadline_ms = cap_min req.timeout_ms t.cfg.timeout_ms in
  let fuel =
    match (req.max_steps, t.cfg.max_steps) with
    | None, s -> s
    | Some c, None -> Some (max 1 c)
    | Some c, Some s -> Some (min (max 1 c) s)
  in
  let token = Guard.Cancel.create ~label:"serve.drain" () in
  let uid = register_inflight t token in
  Fun.protect
    ~finally:(fun () -> unregister_inflight t uid)
    (fun () ->
      let attempt () =
        let guard = Guard.create ~deadline_ms ?fuel ~cancel:token () in
        match
          Guard.run ~guard (fun () ->
              Guard.checkpoint "serve.dispatch";
              exec t req)
        with
        | r -> r
        | exception e ->
          (* nothing a request does may kill its worker: an unexpected
             exception is an internal-error response, not a crash *)
          Ok
            (Protocol.error_response ~id:req.id ~op:req.op ~code:"E901"
               (Printexc.to_string e))
      in
      let retryable trip =
        Protocol.queued req.op && Guard.Retry.transient trip
      in
      let result, attempts =
        Guard.Retry.run ~policy:t.cfg.retry ~seed:uid ~retryable attempt
      in
      if attempts > 1 then Obs.Metrics.add m_retried (attempts - 1);
      match result with
      | Ok resp -> resp
      | Error ({ Guard.reason = Guard.Cancelled _; _ } as trip) ->
        Obs.Metrics.incr m_cancelled;
        unknown_of_trip req trip
      | Error trip ->
        Obs.Metrics.incr m_unknown;
        unknown_of_trip req trip)

(* ------------------------------------------------------------------ *)
(* Admission (accept loop side)                                        *)
(* ------------------------------------------------------------------ *)

let shed_retry_after_ms t = max 25 (t.cfg.timeout_ms / 20)

let handle_line t conn line =
  let line = String.trim line in
  if line = "" then ()
  else if String.length line > Protocol.max_frame_bytes then begin
    Obs.Metrics.incr m_protocol_errors;
    send conn
      (Protocol.error_response ~code:"E905"
         (Printf.sprintf "frame exceeds %d bytes" Protocol.max_frame_bytes))
  end
  else
    match Protocol.parse_request line with
    | Error msg ->
      Obs.Metrics.incr m_protocol_errors;
      if Obs.Events.enabled () then
        Obs.Events.emit Obs.Events.Warn "serve.protocol_error"
          [ ("detail", Obs.Json.String msg) ];
      send conn (Protocol.error_response ~code:"E903" msg)
    | Ok req -> (
      Obs.Metrics.incr m_accepted;
      (* the serve.accept chaos site: an injected trip here degrades the
         request to a shed response — the daemon survives its own
         admission path being killed *)
      match
        Guard.run
          ~guard:(Guard.unlimited ())
          (fun () -> Guard.checkpoint "serve.accept")
      with
      | Error _trip ->
        Obs.Metrics.incr m_shed;
        send conn
          (Protocol.shed_response ~id:req.id ~op:req.op
             ~retry_after_ms:(shed_retry_after_ms t) ())
      | Ok () ->
        if not (Protocol.queued req.op) then
          (* stats/ping bypass the queue so they answer under full load *)
          send conn
            (Protocol.response ~id:req.id ~op:req.op
               ~body:
                 (match req.op with
                 | Protocol.Stats -> stats_body t
                 | _ -> [ ("pong", Obs.Json.Bool true) ])
               Protocol.Ok_)
        else begin
          let quota_decision =
            match t.quota with
            | None -> Quota.Admit
            | Some q -> Quota.admit q req.session
          in
          match quota_decision with
          | Quota.Reject { retry_after_ms } ->
            Obs.Metrics.incr m_quota_rejected;
            send conn
              (Protocol.quota_response ~id:req.id ~op:req.op ~retry_after_ms ())
          | Quota.Admit ->
            let job = { jconn = conn; req; enq_ns = Obs.Clock.now_ns () } in
            Atomic.incr conn.pending;
            if Squeue.try_push t.queue job then
              Obs.Metrics.set m_queue_depth (Squeue.length t.queue)
            else begin
              Atomic.decr conn.pending;
              Obs.Metrics.incr m_shed;
              if Obs.Events.enabled () then
                Obs.Events.emit Obs.Events.Info "serve.shed"
                  [ ("queue_bound", Obs.Json.Int t.cfg.queue_bound) ];
              send conn
                (Protocol.shed_response ~id:req.id ~op:req.op
                   ~retry_after_ms:(shed_retry_after_ms t) ())
            end
        end)

(* ------------------------------------------------------------------ *)
(* Workers                                                             *)
(* ------------------------------------------------------------------ *)

let worker_loop t () =
  let rec loop () =
    match Squeue.pop t.queue with
    | None -> ()
    | Some job ->
      Obs.Metrics.set m_queue_depth (Squeue.length t.queue);
      let resp = handle_request t job.req in
      (match resp.Protocol.status with
      | Protocol.Ok_ -> Obs.Metrics.incr m_completed
      | _ -> ());
      let lat_us =
        Int64.to_int (Int64.sub (Obs.Clock.now_ns ()) job.enq_ns) / 1000
      in
      Obs.Metrics.observe m_latency lat_us;
      send job.jconn resp;
      Atomic.decr job.jconn.pending;
      loop ()
  in
  Fun.protect ~finally:(fun () -> Atomic.decr t.live_workers) loop

(* ------------------------------------------------------------------ *)
(* The accept/read loop                                                *)
(* ------------------------------------------------------------------ *)

let mk_conn fd =
  {
    fd;
    rbuf = Buffer.create 256;
    wmu = Mutex.create ();
    alive = true;
    pending = Atomic.make 0;
  }

let greet t conn =
  send_json conn
    (Protocol.greeting ~workers:t.cfg.workers ~graphs:(List.map fst t.cfg.graphs))

(* split complete frames out of the connection buffer *)
let drain_frames t conn =
  let data = Buffer.contents conn.rbuf in
  match String.rindex_opt data '\n' with
  | None ->
    if String.length data > Protocol.max_frame_bytes then begin
      Obs.Metrics.incr m_protocol_errors;
      send conn
        (Protocol.error_response ~code:"E905"
           (Printf.sprintf "frame exceeds %d bytes without a newline"
              Protocol.max_frame_bytes));
      (* no way to resynchronize mid-frame: drop the connection *)
      conn.alive <- false
    end
  | Some last ->
    let complete = String.sub data 0 last in
    let rest = String.sub data (last + 1) (String.length data - last - 1) in
    Buffer.clear conn.rbuf;
    Buffer.add_string conn.rbuf rest;
    List.iter (handle_line t conn) (String.split_on_char '\n' complete)

let read_conn t conn =
  let chunk = Bytes.create 65536 in
  match Unix.read conn.fd chunk 0 (Bytes.length chunk) with
  | 0 -> conn.alive <- false
  | n ->
    Buffer.add_subbytes conn.rbuf chunk 0 n;
    drain_frames t conn
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE | Unix.EBADF), _, _)
    ->
    conn.alive <- false
  | exception
      Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
    ()

let run t ?listen ?(adopt = []) () =
  if listen = None && adopt = [] then
    invalid_arg "Server.run: nothing to serve (no listener, no connections)";
  let prev_sigpipe =
    try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore)
    with Invalid_argument _ | Sys_error _ -> None
  in
  let conns = ref (List.map mk_conn adopt) in
  List.iter (fun _ -> Obs.Metrics.incr m_connections) !conns;
  List.iter (greet t) !conns;
  Atomic.set t.live_workers t.cfg.workers;
  let workers =
    List.init t.cfg.workers (fun _ -> Domain.spawn (worker_loop t))
  in
  if Obs.Events.enabled () then
    Obs.Events.emit Obs.Events.Info "serve.start"
      [
        ("workers", Obs.Json.Int t.cfg.workers);
        ("queue_bound", Obs.Json.Int t.cfg.queue_bound);
        ("graphs", Obs.Json.Int (List.length t.cfg.graphs));
      ];
  (* ------------------ select loop ------------------ *)
  while not (Atomic.get t.stop) do
    (* close and forget dead connections with no replies in flight *)
    conns :=
      List.filter
        (fun c ->
          if c.alive || Atomic.get c.pending > 0 then true
          else begin
            (try Unix.close c.fd with Unix.Unix_error _ -> ());
            false
          end)
        !conns;
    let watched =
      (t.pipe_r :: Option.to_list listen)
      @ List.filter_map (fun c -> if c.alive then Some c.fd else None) !conns
    in
    match Unix.select watched [] [] 0.25 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error (Unix.EBADF, _, _) ->
      (* a connection died between collection and select; next iteration
         prunes it *)
      ()
    | ready, _, _ ->
      List.iter
        (fun fd ->
          if fd = t.pipe_r then begin
            let b = Bytes.create 16 in
            try ignore (Unix.read t.pipe_r b 0 16)
            with Unix.Unix_error _ -> ()
          end
          else if listen = Some fd then begin
            match Unix.accept fd with
            | cfd, _ ->
              let c = mk_conn cfd in
              Obs.Metrics.incr m_connections;
              conns := c :: !conns;
              greet t c
            | exception Unix.Unix_error _ -> ()
          end
          else
            match List.find_opt (fun c -> c.fd = fd) !conns with
            | Some c when c.alive -> read_conn t c
            | _ -> ())
        ready
  done;
  (* ------------------ graceful drain ------------------ *)
  if Obs.Events.enabled () then
    Obs.Events.emit Obs.Events.Info "serve.drain"
      [ ("queued", Obs.Json.Int (Squeue.length t.queue)) ];
  Squeue.close t.queue;
  let drain_deadline =
    Int64.add (Obs.Clock.now_ns ())
      (Int64.mul (Int64.of_int t.cfg.drain_ms) 1_000_000L)
  in
  while
    Atomic.get t.live_workers > 0
    && Int64.compare (Obs.Clock.now_ns ()) drain_deadline < 0
  do
    Unix.sleepf 0.005
  done;
  if Atomic.get t.live_workers > 0 then begin
    (* grace expired: flip every in-flight token; the next checkpoint in
       each request trips Cancelled and the worker answers [unknown] *)
    if Obs.Events.enabled () then
      Obs.Events.emit Obs.Events.Warn "serve.drain_cancel"
        [ ("inflight", Obs.Json.Int (Hashtbl.length t.inflight)) ];
    cancel_inflight t
  end;
  List.iter Domain.join workers;
  List.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) !conns;
  (match prev_sigpipe with
  | Some b -> ( try Sys.set_signal Sys.sigpipe b with Invalid_argument _ -> ())
  | None -> ());
  if Obs.Events.enabled () then
    Obs.Events.emit Obs.Events.Info "serve.stopped" []
