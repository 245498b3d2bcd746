(* serve-bench: the load generator and correctness client for `seqdiv
   serve`.  Builds Session_workload corpora, drives them over the
   socket as interleaved framed batches (a bounded in-flight window per
   connection, honouring backpressure rejections), collects the
   per-session incident log and prints one line counting what it drove.
   Performance is measured by perfbench/, not here.

   Its features are test hooks: --reconnect survives a SIGKILLed server
   by reconnecting and resending unacknowledged batches (acks are
   deduplicated per (batch, shard), so journalled re-acks merge
   cleanly), and --incident-log writes the deterministic per-session
   event log the serve smoke tests diff across kill/resume runs, shard
   counts and connection counts. *)

open Seqdiv_stream
open Seqdiv_synth
open Seqdiv_core
open Seqdiv_util

type options = {
  address : Serve.address;
  sessions : int;  (* per round *)
  session_length : int;
  rounds : int;
  connections : int;
  chunk : int;  (* symbols per Data event *)
  batch_events : int;
  inflight : int;
  window : int;  (* anomaly injection window *)
  anomaly_size : int;
  anomalous_every : int;  (* every k-th session is an attack; 0 = none *)
  seed : int;
  train_len : int;  (* suite scale for corpus generation *)
  reconnect : bool;
  stall_ms : int;  (* connection 0 stops reading mid-run; 0 = off *)
  incident_log : string option;
  quit : bool;
}

(* --- adaptive backoff ---------------------------------------------------- *)

(* Rejections and reconnects both honour the server's latest
   [retry_after_ms] hint via exponential backoff with deterministic
   seeded jitter: delay(attempt) = min(cap, hint * 2^attempt) *
   (0.5 + u) with u = Fault_plan.jitter over (seed, batch, attempt) —
   reproducible schedules, no thundering herd. *)

let backoff_cap_ms = 2000.0

(* [batch] is the batch id of a rejection, or the reconnect ordinal. *)
let backoff_sleep ~seed ~hint_ms ~kind ~batch ~attempt =
  let base =
    Stdlib.min backoff_cap_ms
      (float_of_int (Stdlib.max 1 hint_ms) *. (2.0 ** float_of_int attempt))
  in
  let kind_tag = match kind with `Reject -> 0 | `Reconnect -> 1 in
  let key =
    Int64.logxor
      (Int64.shift_left (Int64.of_int ((attempt lsl 1) lor kind_tag)) 32)
      (Int64.of_int batch)
  in
  let delay_ms = base *. (0.5 +. Seqdiv_core.Fault_plan.jitter ~seed ~key) in
  Unix.sleepf (delay_ms /. 1000.0)

(* --- corpus ------------------------------------------------------------- *)

(* The per-round corpus: [sessions] traces, every [anomalous_every]-th
   one an attack session. *)
let build_corpus opts =
  let params =
    { (Suite.scaled_params ~train_len:opts.train_len ~background_len:3_000)
      with Suite.seed = opts.seed }
  in
  let suite = Suite.build params in
  let rng = Prng.create ~seed:(opts.seed + 9) in
  let n_anomalous =
    if opts.anomalous_every <= 0 then 0
    else opts.sessions / opts.anomalous_every
  in
  let n_normal = opts.sessions - n_anomalous in
  let normal =
    if n_normal = 0 then []
    else
      Sessions.traces
        (Session_workload.normal suite rng ~sessions:n_normal
           ~length:opts.session_length)
  in
  let anomalous =
    if n_anomalous = 0 then []
    else
      Sessions.traces
        (Session_workload.anomalous suite ~sessions:n_anomalous
           ~length:opts.session_length ~anomaly_size:opts.anomaly_size
           ~window:opts.window)
  in
  (* Interleave: attack sessions spread through the corpus rather than
     bunched at the end. *)
  let arr = Array.make opts.sessions [||] in
  let nq = Queue.create () and aq = Queue.create () in
  List.iter (fun t -> Queue.push (Trace.to_array t) nq) normal;
  List.iter (fun t -> Queue.push (Trace.to_array t) aq) anomalous;
  for i = 0 to opts.sessions - 1 do
    let from_attack =
      opts.anomalous_every > 0
      && i mod opts.anomalous_every = opts.anomalous_every - 1
      && not (Queue.is_empty aq)
    in
    arr.(i) <-
      (if from_attack then Queue.pop aq
       else if not (Queue.is_empty nq) then Queue.pop nq
       else Queue.pop aq)
  done;
  arr

(* --- batch plan --------------------------------------------------------- *)

(* Every batch a connection will send, in order.  Chunks of the
   connection's sessions are interleaved round-robin (many concurrent
   sessions per batch — the serving shape), each round's sessions are
   ended before the next round begins.  Session ids are consecutive
   across rounds (round * sessions + i), and batch ids are globally
   unique across connections (conn + seq * connections). *)
let plan_batches opts ~corpus ~conn_index =
  let batches = ref [] and current = ref [] and current_n = ref 0 in
  let seq = ref 0 in
  let flush_batch () =
    if !current_n > 0 then begin
      let id = conn_index + (!seq * opts.connections) in
      incr seq;
      batches := Frame.Batch { id; events = List.rev !current } :: !batches;
      current := [];
      current_n := 0
    end
  in
  let push_event e =
    current := e :: !current;
    incr current_n;
    if !current_n >= opts.batch_events then flush_batch ()
  in
  for round = 0 to opts.rounds - 1 do
    let mine = ref [] in
    for i = opts.sessions - 1 downto 0 do
      if i mod opts.connections = conn_index then
        mine := ((round * opts.sessions) + i, corpus.(i)) :: !mine
    done;
    let mine = !mine in
    let len = opts.session_length in
    let off = ref 0 in
    while !off < len do
      let k = Stdlib.min opts.chunk (len - !off) in
      List.iter
        (fun (gid, symbols) ->
          push_event
            (Frame.Data { session = gid; symbols = Array.sub symbols !off k }))
        mine;
      off := !off + k
    done;
    List.iter
      (fun (gid, _) -> push_event (Frame.End_of_session { session = gid }))
      mine
  done;
  flush_batch ();
  Array.of_list (List.rev !batches)

(* --- socket plumbing ---------------------------------------------------- *)

let connect_once address =
  match address with
  | Serve.Unix_socket path ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      (try Unix.connect fd (Unix.ADDR_UNIX path)
       with e -> Unix.close fd; raise e);
      fd
  | Serve.Tcp (host, port) ->
      let inet =
        match Unix.inet_addr_of_string host with
        | addr -> addr
        | exception Failure _ -> (Unix.gethostbyname host).Unix.h_addr_list.(0)
      in
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      (try Unix.connect fd (Unix.ADDR_INET (inet, port))
       with e -> Unix.close fd; raise e);
      fd

(* Retry until the server is there (startup) or back (kill/restart). *)
let connect_retry address ~budget_s =
  let deadline = Unix.gettimeofday () +. budget_s in
  let rec go () =
    match connect_once address with
    | fd -> fd
    | exception
        Unix.Unix_error
          ((Unix.ECONNREFUSED | Unix.ENOENT | Unix.ECONNRESET), _, _)
      when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.05;
        go ()
  in
  go ()

let write_all fd bytes =
  let len = Bytes.length bytes in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write fd bytes !off (len - !off)
  done

type link = {
  mutable fd : Unix.file_descr;
  mutable decoder : Frame.reader;
  rbuf : Bytes.t;
  ebuf : Buffer.t;
}

let link_connect address ~budget_s =
  {
    fd = connect_retry address ~budget_s;
    decoder = Frame.reader ();
    rbuf = Bytes.create 65536;
    ebuf = Buffer.create 65536;
  }

(* A write into a dead connection is dropped: the next read reports the
   death (see [recv_response]), and the drive loop reconnects there. *)
let send_request link request =
  Buffer.clear link.ebuf;
  Frame.write_request link.ebuf Frame.Binary request;
  try write_all link.fd (Buffer.to_bytes link.ebuf)
  with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ()

(* One response, or None when the connection died under us. *)
let recv_response link =
  let rec go () =
    match Frame.next_response link.decoder with
    | Some response -> Some response
    | None -> (
        match Unix.read link.fd link.rbuf 0 (Bytes.length link.rbuf) with
        | 0 -> None
        | n ->
            Frame.feed_bytes link.decoder link.rbuf ~pos:0 ~len:n;
            go ()
        | exception
            Unix.Unix_error
              ((Unix.ECONNRESET | Unix.EPIPE | Unix.EBADF), _, _) ->
            None)
  in
  go ()

exception Protocol_failure of string

(* --- the per-connection drive loop -------------------------------------- *)

type conn_result = {
  cr_events : int;
  cr_symbols : int;
  cr_rejections : int;
  cr_failures : int;
  cr_reconnects : int;
  cr_incidents : (int, Frame.incident_event list) Hashtbl.t;
      (* session -> events, newest first *)
}

type pending = {
  p_request : Frame.request;
  p_events : int;
  mutable p_acked_events : int;
  mutable p_rejects : int;  (* backoff attempt counter for this batch *)
  p_acked_shards : (int, unit) Hashtbl.t;
}

let events_of_batch = function
  | Frame.Batch { events; _ } -> List.length events
  | Frame.Stats_request | Frame.Health_request | Frame.Drain_request
  | Frame.Quit ->
      0

let symbols_of_batch = function
  | Frame.Batch { events; _ } ->
      List.fold_left
        (fun acc e ->
          match e with
          | Frame.Data { symbols; _ } -> acc + Array.length symbols
          | Frame.End_of_session _ -> acc)
        0 events
  | Frame.Stats_request | Frame.Health_request | Frame.Drain_request
  | Frame.Quit ->
      0

let drive_connection opts (conn_index, batches) =
  let link = link_connect opts.address ~budget_s:15.0 in
  let incidents : (int, Frame.incident_event list) Hashtbl.t =
    Hashtbl.create 256
  in
  let pending : (int, pending) Hashtbl.t = Hashtbl.create 64 in
  let rejections = ref 0 and failures = ref 0 and reconnects = ref 0 in
  let next = ref 0 in
  let done_batches = ref 0 in
  let nbatches = Array.length batches in
  let last_hint = ref 50 in
  let stalled = ref false in
  let record_incidents events =
    List.iter
      (fun (ev : Frame.incident_event) ->
        let session =
          match ev with
          | Frame.Opened { session; _ } | Frame.Closed { session; _ } -> session
        in
        Hashtbl.replace incidents session
          (ev :: Option.value ~default:[] (Hashtbl.find_opt incidents session)))
      events
  in
  let send_batch request =
    (match request with
    | Frame.Batch { id; events } ->
        if not (Hashtbl.mem pending id) then
          Hashtbl.replace pending id
            {
              p_request = request;
              p_events = List.length events;
              p_acked_events = 0;
              p_rejects = 0;
              p_acked_shards = Hashtbl.create 4;
            }
    | Frame.Stats_request | Frame.Health_request | Frame.Drain_request
    | Frame.Quit ->
        ());
    send_request link request
  in
  let resend_pending () =
    (* After a reconnect: every batch with an outstanding shard ack goes
       again, ids unchanged, lowest first.  Shards that already applied
       them re-ack from their journal history without re-applying. *)
    Hashtbl.fold (fun id _ acc -> id :: acc) pending []
    |> List.sort compare
    |> List.iter (fun id -> send_request link (Hashtbl.find pending id).p_request)
  in
  let handle_death () =
    if not opts.reconnect then
      raise (Protocol_failure "server connection lost (no --reconnect)");
    incr reconnects;
    (* Hint-honouring exponential reconnect: the same backoff schedule
       rejections use, seeded off the reconnect ordinal. *)
    let deadline = Unix.gettimeofday () +. 60.0 in
    let attempt = ref 0 in
    let rec go () =
      backoff_sleep ~seed:opts.seed ~hint_ms:!last_hint ~kind:`Reconnect
        ~batch:!reconnects ~attempt:!attempt;
      (try Unix.close link.fd with Unix.Unix_error _ -> ());
      match connect_once opts.address with
      | fd ->
          link.fd <- fd;
          link.decoder <- Frame.reader ()
      | exception
          Unix.Unix_error
            ((Unix.ECONNREFUSED | Unix.ENOENT | Unix.ECONNRESET), _, _)
        when Unix.gettimeofday () < deadline ->
          incr attempt;
          go ()
    in
    go ();
    resend_pending ()
  in
  while !done_batches < nbatches do
    while !next < nbatches && Hashtbl.length pending < opts.inflight do
      send_batch batches.(!next);
      incr next
    done;
    (* Stalled-client chaos: connection 0 stops reading acks for
       [stall_ms] halfway through.  The server's slow-client protection
       evicts it; --reconnect then resends the unacknowledged tail. *)
    if
      opts.stall_ms > 0 && conn_index = 0 && (not !stalled)
      && 2 * !done_batches >= nbatches
    then begin
      stalled := true;
      Unix.sleepf (float_of_int opts.stall_ms /. 1000.0)
    end;
    match recv_response link with
    | None -> handle_death ()
    | Some (Frame.Ack { id; shard; events; incidents = evs }) -> (
        match Hashtbl.find_opt pending id with
        | None -> () (* late duplicate of a completed batch *)
        | Some p ->
            if not (Hashtbl.mem p.p_acked_shards shard) then begin
              Hashtbl.replace p.p_acked_shards shard ();
              p.p_acked_events <- p.p_acked_events + events;
              record_incidents evs;
              if p.p_acked_events >= p.p_events then begin
                Hashtbl.remove pending id;
                incr done_batches
              end
            end)
    | Some (Frame.Rejected { id; retry_after_ms }) -> (
        match Hashtbl.find_opt pending id with
        | None -> ()
        | Some p ->
            incr rejections;
            last_hint := retry_after_ms;
            backoff_sleep ~seed:opts.seed ~hint_ms:retry_after_ms ~kind:`Reject
              ~batch:id ~attempt:p.p_rejects;
            p.p_rejects <- p.p_rejects + 1;
            send_request link p.p_request)
    | Some (Frame.Failed { id; shard; events; reason }) -> (
        Printf.eprintf "serve-bench: batch %d failed on shard %d: %s\n%!" id
          shard reason;
        incr failures;
        (* A Failed covers only the named shard's slice: account its
           events like an ack so the other shards' acks for the same
           batch still count. *)
        match Hashtbl.find_opt pending id with
        | None -> ()
        | Some p ->
            if not (Hashtbl.mem p.p_acked_shards shard) then begin
              Hashtbl.replace p.p_acked_shards shard ();
              p.p_acked_events <- p.p_acked_events + events;
              if p.p_acked_events >= p.p_events then begin
                Hashtbl.remove pending id;
                incr done_batches
              end
            end)
    | Some (Frame.Stats _ | Frame.Health _ | Frame.Drained _) ->
        () (* unsolicited; ignore *)
    | Some (Frame.Error_msg msg) ->
        raise (Protocol_failure ("server error: " ^ msg))
  done;
  (try Unix.close link.fd with Unix.Unix_error _ -> ());
  {
    cr_events = Array.fold_left (fun a b -> a + events_of_batch b) 0 batches;
    cr_symbols = Array.fold_left (fun a b -> a + symbols_of_batch b) 0 batches;
    cr_rejections = !rejections;
    cr_failures = !failures;
    cr_reconnects = !reconnects;
    cr_incidents = incidents;
  }

(* --- control connection: quit and health --------------------------------- *)

(* Ask the server to shut down, and wait for the orderly shutdown (EOF)
   so scripts can rely on the server being gone when serve-bench
   exits. *)
let quit_server opts =
  let link = link_connect opts.address ~budget_s:15.0 in
  send_request link Frame.Quit;
  while recv_response link <> None do
    ()
  done;
  (try Unix.close link.fd with Unix.Unix_error _ -> ())

(* Standalone probe for `seqdiv serve-health`: one Health_request,
   optionally followed by a drain handshake (Drain_request, then wait
   for Drained once every shard queue has gone idle). *)
let probe_health ~address ~drain =
  let link = link_connect address ~budget_s:15.0 in
  send_request link Frame.Health_request;
  let health =
    match recv_response link with
    | Some (Frame.Health h) -> h
    | Some _ | None ->
        raise (Protocol_failure "no health response from server")
  in
  let drained =
    if not drain then None
    else begin
      send_request link Frame.Drain_request;
      match recv_response link with
      | Some (Frame.Drained { batches }) -> Some batches
      | Some _ | None ->
          raise (Protocol_failure "no drained response from server")
    end
  in
  (try Unix.close link.fd with Unix.Unix_error _ -> ());
  (health, drained)

(* --- incident log -------------------------------------------------------- *)

let write_incident_log path results =
  let oc = open_out path in
  let merged = Hashtbl.create 1024 in
  List.iter
    (fun r ->
      Hashtbl.iter
        (fun session evs -> Hashtbl.replace merged session (List.rev evs))
        r.cr_incidents)
    results;
  Hashtbl.fold (fun session _ acc -> session :: acc) merged []
  |> List.sort compare
  |> List.iter (fun session ->
         List.iter
           (fun ev ->
             output_string oc (Frame.render_incident_event ev);
             output_char oc '\n')
           (Hashtbl.find merged session));
  close_out oc

(* --- entry point -------------------------------------------------------- *)

let run opts =
  (* A dead server must surface as a failed read, not kill the client. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let corpus = build_corpus opts in
  let plans =
    List.init opts.connections (fun conn_index ->
        plan_batches opts ~corpus ~conn_index)
  in
  let pool = Pool.create ~jobs:opts.connections in
  let results =
    Pool.map pool (drive_connection opts)
      (List.mapi (fun conn_index b -> (conn_index, b)) plans)
  in
  if opts.quit then quit_server opts;
  Option.iter (fun path -> write_incident_log path results) opts.incident_log;
  let sum field = List.fold_left (fun a r -> a + field r) 0 results in
  Printf.printf
    "drove %d events (%d symbols) over %d connection(s): %d rejection(s), %d \
     failed batch(es), %d reconnect(s)\n"
    (sum (fun r -> r.cr_events))
    (sum (fun r -> r.cr_symbols))
    opts.connections
    (sum (fun r -> r.cr_rejections))
    (sum (fun r -> r.cr_failures))
    (sum (fun r -> r.cr_reconnects))
