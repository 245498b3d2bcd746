(* The benchmark's load generator: one process, one connection, two
   threads.  The calling thread builds batches lazily, encodes them with
   Frame and writes them; a receiver thread decodes every response,
   settles the batch it answers and timestamps the settlement.

   A batch's latency runs from its start time to the ack that completes
   it: the send time in a closed loop, the due time in an open loop (so
   a stalled generator or server is charged to every batch it delays).
   A rejected batch keeps its start time and is resent after the
   server's hint, so refusals count against latency. *)

open Seqdiv_stream

type pending = {
  p_payload : string;
  p_events : int;
  p_symbols : int;
  p_start : float;
  mutable p_acked : int;
}

type t = {
  fd : Unix.file_descr;
  lock : Mutex.t;
  changed : Condition.t;
  pending : (int, pending) Hashtbl.t;
  resend : (int * float) Queue.t;  (* batch id, not before *)
  buf : Buffer.t;
  mutable next_id : int;
  mutable inflight : int;
  mutable sent_batches : int;
  mutable sent_symbols : int;
  mutable acked_batches : int;
  mutable acked_symbols : int;
  mutable failed : int;
  mutable violations : int;  (* duplicate, unknown or over-counted acks *)
  mutable stats : Frame.shard_stats list option;
  mutable last_settled : float;
  mutable receiver_error : string option;
  mutable closing : bool;
  mutable recording : Measure.samples option;  (* latencies, ms *)
  mutable on_settle : (int -> float -> float -> unit) option;
      (* traced runs: batch id, start, settled *)
  incidents : (int, Frame.incident_event list) Hashtbl.t;  (* newest first *)
  mutable receiver : Thread.t option;
}

let settle t id p now =
  Hashtbl.remove t.pending id;
  t.inflight <- t.inflight - 1;
  t.last_settled <- now;
  Option.iter (fun s -> Measure.add s ((now -. p.p_start) *. 1000.0)) t.recording;
  Option.iter (fun f -> f id p.p_start now) t.on_settle

let handle t response =
  let now = Measure.now () in
  Mutex.lock t.lock;
  (match response with
  | Frame.Ack { id; events; incidents; _ } -> (
      List.iter
        (fun ev ->
          let s = Traffic.session_of_incident ev in
          Hashtbl.replace t.incidents s
            (ev :: Option.value ~default:[] (Hashtbl.find_opt t.incidents s)))
        incidents;
      match Hashtbl.find_opt t.pending id with
      | None -> t.violations <- t.violations + 1
      | Some p ->
          p.p_acked <- p.p_acked + events;
          if p.p_acked = p.p_events then begin
            t.acked_batches <- t.acked_batches + 1;
            t.acked_symbols <- t.acked_symbols + p.p_symbols;
            settle t id p now
          end
          else if p.p_acked > p.p_events then begin
            t.violations <- t.violations + 1;
            settle t id p now
          end)
  | Frame.Failed { id; _ } -> (
      t.failed <- t.failed + 1;
      match Hashtbl.find_opt t.pending id with
      | Some p -> settle t id p now
      | None -> t.violations <- t.violations + 1)
  | Frame.Rejected { id; retry_after_ms } ->
      Queue.push (id, now +. (float_of_int retry_after_ms /. 1000.0)) t.resend
  | Frame.Stats s -> t.stats <- Some s
  | Frame.Health _ | Frame.Drained _ -> t.violations <- t.violations + 1
  | Frame.Error_msg m ->
      t.receiver_error <- Some m;
      t.violations <- t.violations + 1);
  Condition.broadcast t.changed;
  Mutex.unlock t.lock

let wake t =
  Mutex.lock t.lock;
  Condition.broadcast t.changed;
  Mutex.unlock t.lock

(* Reads time out after [wake_s] (SO_RCVTIMEO): a silent second wakes
   the waiters, so their deadlines are checked even when no response
   comes. *)
let wake_s = 1.0

let receive t =
  let reader = Frame.reader () and buf = Bytes.create 65536 in
  let rec loop () =
    match Frame.next_response reader with
    | Some r ->
        handle t r;
        loop ()
    | None -> (
        match Unix.read t.fd buf 0 (Bytes.length buf) with
        | 0 -> if not t.closing then failwith "the server closed the connection"
        | n ->
            Frame.feed_bytes reader buf ~pos:0 ~len:n;
            loop ()
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
          ->
            wake t;
            loop ()
        | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EBADF), _, _) ->
            if not t.closing then failwith "the connection was reset")
  in
  (try loop ()
   with e ->
     Mutex.lock t.lock;
     t.receiver_error <- Some (Printexc.to_string e);
     Mutex.unlock t.lock);
  wake t

let connect socket =
  let fd = Server.connect socket in
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO wake_s;
  let t =
    {
      fd;
      lock = Mutex.create ();
      changed = Condition.create ();
      pending = Hashtbl.create 64;
      resend = Queue.create ();
      buf = Buffer.create 65536;
      next_id = 0;
      inflight = 0;
      sent_batches = 0;
      sent_symbols = 0;
      acked_batches = 0;
      acked_symbols = 0;
      failed = 0;
      violations = 0;
      stats = None;
      last_settled = 0.0;
      receiver_error = None;
      closing = false;
      recording = None;
      on_settle = None;
      incidents = Hashtbl.create 1024;
      receiver = None;
    }
  in
  t.receiver <- Some (Thread.create receive t);
  t

let alive t = t.receiver_error = None

let fail_if_dead t =
  match t.receiver_error with
  | Some m -> failwith ("connection lost: " ^ m)
  | None -> ()

(* Write the payloads of rejected batches whose hint has passed. *)
let resend_due t =
  let now = Measure.now () in
  let due = ref [] in
  Mutex.lock t.lock;
  let keep = Queue.create () in
  Queue.iter
    (fun ((id, at) as r) ->
      if at <= now then
        match Hashtbl.find_opt t.pending id with
        | Some p -> due := p.p_payload :: !due
        | None -> ()
      else Queue.push r keep)
    t.resend;
  Queue.clear t.resend;
  Queue.transfer keep t.resend;
  Mutex.unlock t.lock;
  List.iter (Server.write_all t.fd) (List.rev !due)

(* Send one batch; [start] is its due time in an open loop, or [None]
   to start the clock at the write.  Returns the batch id. *)
let send ?start t events =
  let id = t.next_id in
  t.next_id <- id + 1;
  Buffer.clear t.buf;
  Frame.write_request t.buf Frame.Binary (Frame.Batch { id; events });
  let payload = Buffer.contents t.buf in
  let symbols = Traffic.symbols_in events in
  let p_start = match start with Some s -> s | None -> Measure.now () in
  Mutex.lock t.lock;
  Hashtbl.replace t.pending id
    { p_payload = payload; p_events = List.length events; p_symbols = symbols;
      p_start; p_acked = 0 };
  t.inflight <- t.inflight + 1;
  t.sent_batches <- t.sent_batches + 1;
  t.sent_symbols <- t.sent_symbols + symbols;
  Mutex.unlock t.lock;
  Server.write_all t.fd payload;
  id

let with_lock t f =
  Mutex.lock t.lock;
  match f () with
  | v ->
      Mutex.unlock t.lock;
      v
  | exception e ->
      Mutex.unlock t.lock;
      raise e

(* Block until fewer than [n] batches are in flight (resending rejected
   batches meanwhile).  The receiver wakes this wait at least every
   [wake_s], so a server that answers nothing for 60 s fails the run
   instead of hanging it. *)
let wait_below t n =
  let deadline = Measure.now () +. 60.0 in
  let rec go () =
    resend_due t;
    let ready =
      with_lock t (fun () ->
          if t.inflight >= n && Queue.is_empty t.resend && alive t then
            Condition.wait t.changed t.lock;
          t.inflight < n)
    in
    fail_if_dead t;
    if not ready then begin
      if Measure.now () > deadline then failwith "server stopped acknowledging";
      if not (with_lock t (fun () -> Queue.is_empty t.resend)) then Unix.sleepf 0.0005;
      go ()
    end
  in
  go ()

let drain t = wait_below t 1

(* The per-shard counters of a Stats frame. *)
let stats t =
  with_lock t (fun () -> t.stats <- None);
  Buffer.clear t.buf;
  Frame.write_request t.buf Frame.Binary Frame.Stats_request;
  Server.write_all t.fd (Buffer.contents t.buf);
  let deadline = Measure.now () +. 30.0 in
  let rec go () =
    match with_lock t (fun () -> t.stats) with
    | Some s -> s
    | None ->
        fail_if_dead t;
        if Measure.now () > deadline then failwith "no Stats answer";
        Unix.sleepf 0.001;
        go ()
  in
  go ()

let close t =
  t.closing <- true;
  (try Unix.shutdown t.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  Option.iter Thread.join t.receiver;
  t.receiver <- None;
  Unix.close t.fd

(* The incident log of [session], oldest first, rendered. *)
let log t session =
  List.rev_map Frame.render_incident_event
    (Option.value ~default:[] (Hashtbl.find_opt t.incidents session))

(* --- the two loops --------------------------------------------------------- *)

(* Closed loop: at most [inflight] batches outstanding; [next ()] yields
   the next batch or [None] when the workload is done. *)
let closed_loop ?(poll = ignore) t ~inflight next =
  let rec go () =
    wait_below t inflight;
    poll ();
    match next () with
    | None -> ()
    | Some events ->
        ignore (send t events);
        go ()
  in
  go ();
  drain t

(* Open loop: batch [k] is due at [t0 + k / rate] whatever the server
   does.  Returns the generator's lateness per batch (ms). *)
let open_loop ?(poll = ignore) t ~rate ~batches make =
  let late = Measure.samples () in
  let t0 = Measure.now () in
  for k = 0 to batches - 1 do
    let due = t0 +. (float_of_int k /. rate) in
    let rec sleep () =
      resend_due t;
      fail_if_dead t;
      let d = due -. Measure.now () in
      if d > 0.0 then begin
        poll ();
        let d = due -. Measure.now () in
        if d > 0.0 then Unix.sleepf (Float.min d 0.002);
        sleep ()
      end
    in
    sleep ();
    let events = make k in
    Measure.add late ((Measure.now () -. due) *. 1000.0);
    ignore (send ~start:due t events)
  done;
  drain t;
  late
