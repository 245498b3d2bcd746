(* End-to-end socket tests for the serve layer's robustness machinery:
   the connection reaper ([max_connections] bounds concurrency, not the
   lifetime client count), slow-client eviction (exactly one eviction,
   service continues), the Health/Drain control frames, and the shard
   lifecycle supervisor (chaos crash -> journalled restart -> ack;
   exhausted fate -> one shard degraded, the others serving).

   Tests are not linted: spawning the server in a Domain here is fine —
   the R6 Domain restriction binds lib/, not test/. *)

open Seqdiv_stream
open Seqdiv_synth
open Seqdiv_core
open Seqdiv_detectors
open Seqdiv_test_support

let scorer_and_threshold =
  lazy
    (let suite = tiny_suite () in
     let stide =
       Trained.train (Registry.find_exn "stide") ~window:4 suite.Suite.training
     in
     let scorer =
       match Trained.compile stide with
       | Some scorer -> scorer
       | None -> Alcotest.fail "stide must compile"
     in
     (scorer, Trained.alarm_threshold stide))

(* {1 Plumbing} *)

let sock_counter = ref 0

let fresh_socket_path () =
  incr sock_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "seqdiv-test-serve-%d-%d.sock" (Unix.getpid ())
       !sock_counter)

let base_config ?(shards = 1) ?(queue_capacity = 64) ?journal_dir ?chaos
    ?(max_restarts = Serve.default_max_restarts)
    ?(write_timeout_ms = Serve.default_write_timeout_ms)
    ?(max_connections = 16) ?adaptive path =
  let scorer, threshold = Lazy.force scorer_and_threshold in
  {
    Serve.address = Serve.Unix_socket path;
    shards;
    queue_capacity;
    retry_after_ms = Serve.default_retry_after_ms;
    scorer;
    threshold;
    adaptive;
    model_tag = "test";
    journal_dir;
    resume = false;
    deadline = None;
    clock = Unix.gettimeofday;
    max_connections;
    max_restarts;
    write_timeout_ms;
    chaos;
  }

(* Run the server in a domain; returns after the listener is bound. *)
let start_server cfg =
  let ready = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        Serve.run ~on_ready:(fun () -> Atomic.set ready true) cfg)
  in
  while not (Atomic.get ready) do
    Unix.sleepf 0.005
  done;
  d

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  fd

type client = { fd : Unix.file_descr; decoder : Frame.reader; rbuf : Bytes.t }

let client path =
  { fd = connect path; decoder = Frame.reader (); rbuf = Bytes.create 65536 }

let send c request =
  let b = Buffer.create 1024 in
  Frame.write_request b Frame.Binary request;
  let bytes = Buffer.to_bytes b in
  let len = Bytes.length bytes in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write c.fd bytes !off (len - !off)
  done

let recv c =
  let rec go () =
    match Frame.next_response c.decoder with
    | Some r -> Some r
    | None -> (
        match Unix.read c.fd c.rbuf 0 (Bytes.length c.rbuf) with
        | 0 -> None
        | n ->
            Frame.feed_bytes c.decoder c.rbuf ~pos:0 ~len:n;
            go ()
        | exception
            Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE | Unix.EBADF), _, _)
          ->
            None)
  in
  go ()

let close_client c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let recv_exn c name =
  match recv c with
  | Some r -> r
  | None -> Alcotest.failf "%s: connection closed instead of a response" name

(* Shut the server down through the protocol and join its domain.  The
   quit frame must land on an admitted connection — under a tight
   [max_connections] the previous slot may not be reaped yet, so first
   prove admission with a stats roundtrip, retrying until a slot frees
   up. *)
let quit_server path server =
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec admitted () =
    let c = client path in
    let answer =
      match send c Frame.Stats_request with
      | () -> recv c
      | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
          None
    in
    match answer with
    | Some (Frame.Stats _) -> c
    | Some _ | None ->
        close_client c;
        if Unix.gettimeofday () > deadline then
          Alcotest.fail "could not reach the server to shut it down"
        else begin
          Unix.sleepf 0.05;
          admitted ()
        end
  in
  let c = admitted () in
  (try send c Frame.Quit with Unix.Unix_error _ -> ());
  while recv c <> None do
    ()
  done;
  close_client c;
  ignore (Domain.join server : Frame.shard_stats list)

(* A session id routing to the wanted shard. *)
let session_for ~shards ~shard =
  let rec go s =
    if Frame.shard_of_session ~shards s = shard then s else go (s + 1)
  in
  go 0

let batch ~id sessions =
  Frame.Batch
    {
      id;
      events =
        List.map
          (fun session ->
            Frame.Data { session; symbols = [| 0; 1; 2; 3; 4; 5 |] })
          sessions;
    }

let health_of c =
  send c Frame.Health_request;
  match recv_exn c "health" with
  | Frame.Health h -> h
  | _ -> Alcotest.fail "expected a Health response"

(* {1 The reaper: max_connections bounds concurrency, not lifetime} *)

let test_reaper () =
  let path = fresh_socket_path () in
  let server = start_server (base_config ~max_connections:1 path) in
  (* Slot taken: the next accept is closed immediately (EOF without a
     response, even to a valid request). *)
  let a = client path in
  send a Frame.Stats_request;
  (match recv_exn a "conn A" with
  | Frame.Stats _ -> ()
  | _ -> Alcotest.fail "expected stats on the admitted connection");
  let b = client path in
  (match (send b Frame.Stats_request, recv b) with
  | (), None -> ()
  | (), Some _ -> Alcotest.fail "over-limit connection was served"
  | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ());
  close_client b;
  (* Free the slot; the reaper must hand it to a new client within a
     few ticks — the limit never counts dead connections. *)
  close_client a;
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec reconnect () =
    let c = client path in
    let answer =
      (* Over-limit connections are closed server-side at any point:
         a send into the closed socket (EPIPE/reset) means the same
         thing as reading EOF — the slot is still busy, retry. *)
      match send c Frame.Stats_request with
      | () -> recv c
      | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
          None
    in
    match answer with
    | Some (Frame.Stats _) -> c
    | Some _ -> Alcotest.fail "expected stats"
    | None ->
        close_client c;
        if Unix.gettimeofday () > deadline then
          Alcotest.fail "slot never freed by the reaper"
        else begin
          Unix.sleepf 0.05;
          reconnect ()
        end
  in
  let c = reconnect () in
  Alcotest.(check int) "one live connection" 1 (health_of c).Frame.connections;
  Alcotest.(check int) "no evictions" 0 (health_of c).Frame.evictions;
  close_client c;
  quit_server path server

(* {1 Slow-client eviction} *)

let test_eviction () =
  let path = fresh_socket_path () in
  let server = start_server (base_config ~write_timeout_ms:200 path) in
  (* A client that writes batches but never reads acks: once the socket
     buffer and the bounded out-channel fill, the server evicts it. *)
  let c1 = client path in
  let evicted = ref false in
  (try
     for id = 0 to 49_999 do
       if not !evicted then send c1 (batch ~id [ 0 ])
     done
   with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
     evicted := true);
  Alcotest.(check bool) "flooding client evicted" true !evicted;
  close_client c1;
  (* Service continues for everyone else, and the eviction was counted
     exactly once (the evict/shutdown/close path is single-shot). *)
  let c2 = client path in
  send c2 (batch ~id:1_000_000 [ 0 ]);
  (match recv_exn c2 "post-eviction batch" with
  | Frame.Ack _ -> ()
  | Frame.Rejected _ -> () (* backpressure from the flood is fine *)
  | _ -> Alcotest.fail "expected ack or rejection after eviction");
  let rec settle tries =
    let h = health_of c2 in
    if h.Frame.evictions = 1 then h
    else if tries = 0 then h
    else begin
      Unix.sleepf 0.05;
      settle (tries - 1)
    end
  in
  let h = settle 40 in
  Alcotest.(check int) "exactly one eviction" 1 h.Frame.evictions;
  close_client c2;
  quit_server path server

(* {1 Health and drain frames} *)

let test_health_and_drain () =
  let path = fresh_socket_path () in
  let server = start_server (base_config ~shards:2 path) in
  let c = client path in
  let s0 = session_for ~shards:2 ~shard:0
  and s1 = session_for ~shards:2 ~shard:1 in
  send c (batch ~id:0 [ s0; s1 ]);
  (* One ack per touched shard. *)
  let ack_shards = ref [] in
  for _ = 1 to 2 do
    match recv_exn c "ack" with
    | Frame.Ack { shard; _ } -> ack_shards := shard :: !ack_shards
    | _ -> Alcotest.fail "expected an ack per shard"
  done;
  Alcotest.(check (list int)) "both shards answered" [ 0; 1 ]
    (List.sort compare !ack_shards);
  let h = health_of c in
  Alcotest.(check int) "two shards" 2 (List.length h.Frame.shards);
  List.iter
    (fun (sh : Frame.shard_stats) ->
      Alcotest.(check bool) "alive" true sh.Frame.alive;
      Alcotest.(check bool) "not degraded" false sh.Frame.degraded;
      Alcotest.(check int) "no restarts" 0 sh.Frame.restarts;
      Alcotest.(check int) "one sub-batch applied" 1 sh.Frame.batches;
      Alcotest.(check bool) "hint at least the floor" true
        (sh.Frame.retry_after_ms >= Serve.default_retry_after_ms))
    h.Frame.shards;
  Alcotest.(check bool) "not draining" false h.Frame.draining;
  (* Drain: the response arrives once every queue is idle, and carries
     the applied batch count; new work is rejected afterwards. *)
  send c Frame.Drain_request;
  (match recv_exn c "drained" with
  | Frame.Drained { batches } ->
      Alcotest.(check int) "both sub-batches counted" 2 batches
  | _ -> Alcotest.fail "expected a Drained response");
  send c (batch ~id:1 [ s0 ]);
  (match recv_exn c "post-drain batch" with
  | Frame.Rejected _ -> ()
  | _ -> Alcotest.fail "draining server must reject new batches");
  Alcotest.(check bool) "draining reported" true (health_of c).Frame.draining;
  close_client c;
  quit_server path server

(* {1 Foreign bytes} *)

let test_foreign_bytes_refused () =
  let path = fresh_socket_path () in
  let server = start_server (base_config path) in
  (* A JSON line is not a frame: its first byte is refused at once with
     an Error_msg, and the server closes the connection. *)
  let c = client path in
  let line = Bytes.of_string "{\"type\":\"stats\"}\n" in
  ignore (Unix.write c.fd line 0 (Bytes.length line) : int);
  (match recv_exn c "foreign bytes" with
  | Frame.Error_msg msg ->
      Alcotest.(check string) "names the byte" "Frame: bad frame magic 0x7b"
        msg
  | _ -> Alcotest.fail "expected an Error_msg");
  Alcotest.(check bool) "then end of stream" true (recv c = None);
  close_client c;
  (* The refused connection is reaped: the probe is the only one left. *)
  let probe = client path in
  let rec settle tries =
    let h = health_of probe in
    if h.Frame.connections = 1 || tries = 0 then h
    else begin
      Unix.sleepf 0.05;
      settle (tries - 1)
    end
  in
  Alcotest.(check int) "no leaked connection" 1 (settle 40).Frame.connections;
  close_client probe;
  quit_server path server

(* {1 The supervisor: chaos crash -> journalled restart -> ack} *)

let with_temp_dir f =
  let dir = Filename.temp_file "seqdiv-test-serve" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun n -> try Sys.remove (Filename.concat dir n) with Sys_error _ -> ())
        (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () -> f dir)

let test_supervised_restart () =
  with_temp_dir (fun dir ->
      let path = fresh_socket_path () in
      (* Every sub-batch is crash-fated for exactly one attempt: each
         batch kills the shard domain once, the supervisor restarts it
         from the journal, and the re-run acks.  The consecutive budget
         resets on every ack, so three batches mean three restarts and
         zero degradations. *)
      let chaos =
        Fault_plan.of_seed ~transient_rate:1.0 ~sticky:1 ~seed:3 ()
      in
      let server =
        start_server (base_config ~journal_dir:dir ~chaos ~max_restarts:2 path)
      in
      let c = client path in
      for id = 0 to 2 do
        send c (batch ~id [ 0 ]);
        match recv_exn c "chaos ack" with
        | Frame.Ack { id = acked; _ } ->
            Alcotest.(check int) "acked in order" id acked
        | Frame.Failed { reason; _ } ->
            Alcotest.failf "batch %d failed instead of restarting: %s" id
              reason
        | _ -> Alcotest.fail "expected an ack"
      done;
      let h = health_of c in
      (match h.Frame.shards with
      | [ sh ] ->
          Alcotest.(check int) "three restarts" 3 sh.Frame.restarts;
          Alcotest.(check bool) "alive" true sh.Frame.alive;
          Alcotest.(check bool) "not degraded" false sh.Frame.degraded
      | _ -> Alcotest.fail "expected one shard");
      close_client c;
      quit_server path server)

let test_degrade_isolates () =
  let path = fresh_socket_path () in
  (* No journal: there is no honest state to restart from, so a chaos
     crash degrades its shard.  The fate hash is pure, so pick batch
     ids whose shard-0 slice crashes and whose shard-1 slice does not —
     then check the degrade touched only shard 0. *)
  let chaos = Fault_plan.of_seed ~transient_rate:0.5 ~sticky:1 ~seed:9 () in
  let fate ~batch_id ~shard =
    Fault_plan.decide chaos ~key:(Fault_plan.job_key ~batch_id ~shard)
      ~attempt:0
  in
  let rec find_id pred i =
    if pred i then i
    else if i > 100_000 then Alcotest.fail "no batch id with wanted fate"
    else find_id pred (i + 1)
  in
  let id_crash =
    find_id
      (fun i -> fate ~batch_id:i ~shard:0 = Some Fault.Transient)
      0
  in
  let id_clean = find_id (fun i -> fate ~batch_id:i ~shard:1 = None) 0 in
  let server = start_server (base_config ~shards:2 ~chaos path) in
  let c = client path in
  let s0 = session_for ~shards:2 ~shard:0
  and s1 = session_for ~shards:2 ~shard:1 in
  send c (batch ~id:id_crash [ s0 ]);
  (match recv_exn c "degraded sub" with
  | Frame.Failed { shard; events; reason; _ } ->
      Alcotest.(check int) "failed on shard 0" 0 shard;
      Alcotest.(check int) "events accounted" 1 events;
      Alcotest.(check bool) "reason names the degrade" true
        (String.length reason > 0)
  | _ -> Alcotest.fail "expected the crashed sub-batch to fail");
  send c (batch ~id:id_clean [ s1 ]);
  (match recv_exn c "surviving shard" with
  | Frame.Ack { shard; _ } -> Alcotest.(check int) "shard 1 serves" 1 shard
  | _ -> Alcotest.fail "expected shard 1 to keep serving");
  let h = health_of c in
  List.iter
    (fun (sh : Frame.shard_stats) ->
      if sh.Frame.shard = 0 then begin
        Alcotest.(check bool) "shard 0 degraded" true sh.Frame.degraded;
        Alcotest.(check bool) "shard 0 not alive" false sh.Frame.alive
      end
      else begin
        Alcotest.(check bool) "shard 1 not degraded" false sh.Frame.degraded;
        Alcotest.(check bool) "shard 1 alive" true sh.Frame.alive
      end)
    h.Frame.shards;
  (* A later batch for the degraded shard fails at admission, with its
     event count, while the live slice of the same batch is acked. *)
  let id_mixed =
    find_id
      (fun i -> i > id_clean && fate ~batch_id:i ~shard:1 = None)
      (id_clean + 1)
  in
  send c (batch ~id:id_mixed [ s0; s1 ]);
  let got_ack = ref false and got_failed = ref false in
  for _ = 1 to 2 do
    match recv_exn c "mixed batch" with
    | Frame.Ack { shard; _ } ->
        Alcotest.(check int) "live slice on shard 1" 1 shard;
        got_ack := true
    | Frame.Failed { shard; events; _ } ->
        Alcotest.(check int) "failed slice on shard 0" 0 shard;
        Alcotest.(check int) "failed slice events" 1 events;
        got_failed := true
    | _ -> Alcotest.fail "expected ack + failure for the mixed batch"
  done;
  Alcotest.(check bool) "mixed batch: ack and failure" true
    (!got_ack && !got_failed);
  close_client c;
  quit_server path server

let () =
  Alcotest.run "serve"
    [
      ( "serve",
        [
          Alcotest.test_case "reaper bounds concurrency" `Slow test_reaper;
          Alcotest.test_case "slow client evicted" `Slow test_eviction;
          Alcotest.test_case "health and drain" `Slow test_health_and_drain;
          Alcotest.test_case "foreign bytes refused" `Slow
            test_foreign_bytes_refused;
          Alcotest.test_case "supervised restart" `Slow test_supervised_restart;
          Alcotest.test_case "degrade isolates" `Slow test_degrade_isolates;
        ] );
    ]
