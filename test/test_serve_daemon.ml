(* End-to-end robustness demo from ISSUE 8, driven against the real
   [injcrpq serve] binary (argv.(1)):

   - queue bound 1 and a 2 req/s per-session quota;
   - INJCRPQ_CHAOS=guard:serve.worker:3 killing a worker attempt
     mid-run;
   - a 50-request client across 16 sessions sees only well-formed
     ok/unknown/shed/quota responses;
   - stats reports nonzero serve.shed and serve.retried;
   - SIGTERM drains to exit 0 and the --log sink is flushed.

   A plain executable (not alcotest): prints one line per check and
   exits nonzero on the first violation. *)

module P = Serve.Protocol

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("FAIL: " ^ s); exit 1) fmt
let pass fmt = Printf.ksprintf (fun s -> print_endline ("ok: " ^ s)) fmt

let graph_file = "daemon_test.graph"
let sock = "daemon_test.sock"
let log_file = "daemon_test.log.jsonl"

let write_graph () =
  let oc = open_out graph_file in
  output_string oc "0 a 1\n1 b 2\n2 a 3\n3 b 0\n0 c 0\n2 c 2\n";
  close_out oc

(* the daemon must see our chaos spec, not whatever leg-level spec the
   surrounding `dune runtest` was started with *)
let env_with_chaos spec =
  let kept =
    Array.to_list (Unix.environment ())
    |> List.filter (fun kv ->
           not (String.length kv >= 14 && String.sub kv 0 14 = "INJCRPQ_CHAOS="))
  in
  Array.of_list (("INJCRPQ_CHAOS=" ^ spec) :: kept)

let spawn_daemon exe =
  let args =
    [|
      exe; "serve"; "--socket"; sock; "--graph"; "default=" ^ graph_file;
      "--workers"; "2"; "--queue-bound"; "1"; "--quota-rps"; "2";
      "--retry-attempts"; "3"; "--retry-base-ms"; "1"; "--log"; log_file;
    |]
  in
  Unix.create_process_env exe args
    (env_with_chaos "guard:serve.worker:3")
    Unix.stdin Unix.stdout Unix.stderr

(* The socket file appears at [bind], before the daemon calls [listen],
   so a connect is refused until then: retry until the deadline. *)
let connect () =
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec go () =
    match Serve.Client.connect_unix sock with
    | client -> client
    | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _)
      when Unix.gettimeofday () <= deadline ->
      Unix.sleepf 0.05;
      go ()
    | exception Unix.Unix_error (Unix.ENOENT, _, _) -> die "daemon never bound %s" sock
    | exception Unix.Unix_error (e, _, _) -> die "connect: %s" (Unix.error_message e)
  in
  let client = go () in
  match Serve.Client.greeting ~timeout_ms:5000 client with
  | Ok _ -> client
  | Error e -> die "no greeting: %s" e

let recv_or_die client =
  match Serve.Client.recv ~timeout_ms:10_000 client with
  | Ok r -> r
  | Error e -> die "recv: %s" e

let serve_counter client name =
  (match Serve.Client.send client (P.request ~id:(Obs.Json.Int 0) P.Stats) with
  | Ok () -> ()
  | Error e -> die "send stats: %s" e);
  let resp = recv_or_die client in
  match List.assoc_opt "serve" resp.P.body with
  | Some (Obs.Json.Obj fields) -> (
    match List.assoc_opt name fields with
    | Some (Obs.Json.Int n) -> n
    | _ -> 0)
  | _ -> die "stats response lacks serve section"

let fire_burst client =
  let n = 50 in
  for i = 1 to n do
    let req =
      P.request ~id:(Obs.Json.Int i)
        ~session:(Printf.sprintf "s%d" (i mod 16))
        ~query:"Q(x, y) :- x -[(ab)*]-> y, y -[c*]-> x" P.Eval
    in
    match Serve.Client.send client req with
    | Ok () -> ()
    | Error e -> die "send %d: %s" i e
  done;
  let ok = ref 0 and unknown = ref 0 and shed = ref 0 and quota = ref 0 in
  for _ = 1 to n do
    let resp = recv_or_die client in
    (match resp.P.id with
    | Obs.Json.Int i when i >= 1 && i <= n -> ()
    | other -> die "response with bad id %s" (Obs.Json.to_string other));
    match resp.P.status with
    | P.Ok_ -> incr ok
    | P.Unknown -> incr unknown
    | P.Shed -> incr shed
    | P.Quota -> incr quota
    | P.Error ->
      die "unexpected error response: %s"
        (Obs.Json.to_string (P.response_to_json resp))
  done;
  pass "50 requests answered: ok=%d unknown=%d shed=%d quota=%d" !ok !unknown
    !shed !quota;
  if !ok = 0 then die "no request succeeded";
  if !shed = 0 then die "queue bound 1 never shed under a 50-deep burst";
  if !quota = 0 then die "2 req/s quota never rejected across 16 sessions"

(* Sequential requests on fresh sessions: each one is alone in the
   queue, so it must reach a worker.  This pushes the serve.worker
   visit count past the armed chaos rule's 3rd visit no matter how few
   of the burst requests were admitted, so the retry layer provably
   fires before we read serve.retried. *)
let fire_tail client =
  for i = 1 to 5 do
    let req =
      P.request ~id:(Obs.Json.Int (1000 + i))
        ~session:(Printf.sprintf "tail%d" i)
        ~query:"Q(x, y) :- x -[(ab)*]-> y, y -[c*]-> x" P.Eval
    in
    (match Serve.Client.send client req with
    | Ok () -> ()
    | Error e -> die "tail send %d: %s" i e);
    let resp = recv_or_die client in
    if resp.P.id <> Obs.Json.Int (1000 + i) then
      die "tail response %d: wrong id" i;
    match resp.P.status with
    | P.Ok_ | P.Unknown -> ()
    | s -> die "tail response %d: unexpected status %s" i (P.status_to_string s)
  done;
  pass "5 sequential tail requests answered"

let wait_exit pid =
  let deadline = Unix.gettimeofday () +. 15.0 in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
      if Unix.gettimeofday () > deadline then begin
        Unix.kill pid Sys.sigkill;
        die "daemon did not drain within 15s of SIGTERM"
      end;
      Unix.sleepf 0.05;
      go ()
    | _, status -> status
  in
  go ()

let () =
  let exe =
    if Array.length Sys.argv < 2 then die "usage: %s INJCRPQ_EXE" Sys.argv.(0)
    else Sys.argv.(1)
  in
  write_graph ();
  (try Unix.unlink sock with Unix.Unix_error _ -> ());
  (try Unix.unlink log_file with Unix.Unix_error _ -> ());
  let pid = spawn_daemon exe in
  Fun.protect
    ~finally:(fun () ->
      (* belt and braces: never leave the daemon running *)
      try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
    (fun () ->
      let client = connect () in
      pass "connected and greeted";
      fire_burst client;
      fire_tail client;
      let shed = serve_counter client "serve.shed" in
      let retried = serve_counter client "serve.retried" in
      if shed = 0 then die "stats: serve.shed is 0";
      if retried = 0 then die "stats: serve.retried is 0 (chaos trip not retried)";
      pass "stats: serve.shed=%d serve.retried=%d" shed retried;
      Serve.Client.close client;
      Unix.kill pid Sys.sigterm;
      (match wait_exit pid with
      | Unix.WEXITED 0 -> pass "SIGTERM drained to exit 0"
      | Unix.WEXITED n -> die "daemon exited %d on SIGTERM" n
      | Unix.WSIGNALED n -> die "daemon killed by signal %d" n
      | Unix.WSTOPPED n -> die "daemon stopped by signal %d" n);
      (match
         let ic = open_in log_file in
         let len = in_channel_length ic in
         close_in ic;
         len
       with
      | 0 -> die "--log sink was not flushed on drain"
      | n -> pass "--log sink flushed (%d bytes)" n
      | exception Sys_error e -> die "--log file missing: %s" e);
      print_endline "daemon robustness demo: all checks passed")
