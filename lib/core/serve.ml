(* The serve loop: reader/writer threads per connection (all in the
   accept domain), one domain and bounded ingress queue per shard,
   all-or-nothing batch admission, journalled durability, and a shard
   lifecycle supervisor.  The server runs shards + 1 domains.  The ONE
   module besides lib/util/pool.ml allowed to touch
   Domain/Thread/Atomic/Mutex/Condition (lint R6 standing exemption —
   see docs/LINTING.md): its loops are live stateful services, not a
   finite batch of pure closures, so they cannot ride the pool.  The
   determinism the pool normally guarantees is enforced from outside
   instead, by the qcheck replay suite over Session_table.

   Lock ordering, the whole of it: shard queue mutexes are taken in
   ascending shard index (admission, the only multi-lock path), and a
   queue mutex is never held while taking a [stats_lock] or vice versa.
   Connection out-channel mutexes nest inside nothing. *)

open Seqdiv_stream
open Seqdiv_util

type address = Unix_socket of string | Tcp of string * int

type config = {
  address : address;
  shards : int;
  queue_capacity : int;
  retry_after_ms : int;
  scorer : Flat_automaton.scorer;
  threshold : float;
  adaptive : Adaptive_threshold.config option;
  model_tag : string;
  journal_dir : string option;
  resume : bool;
  deadline : Deadline.spec option;
  clock : unit -> float;
  max_connections : int;
  max_restarts : int;
  write_timeout_ms : int;
  chaos : Fault_plan.t option;
}

let default_queue_capacity = 64
let default_retry_after_ms = 5
let default_max_connections = 16
let default_max_restarts = 3
let default_write_timeout_ms = 2000

(* The adaptive backpressure hint never exceeds this: an overloaded
   server wants clients back soon after the queue drains, not parked
   for seconds on a stale estimate. *)
let max_retry_after_ms = 1000

(* Responses queued to one connection: a client that cannot drain this
   many acks is not reading and gets evicted, never buffered without
   bound. *)
let max_pending_responses = 1024

(* --- a mutex/condition channel ----------------------------------------- *)

(* Plain blocking MPSC channel.  Bounding is enforced by the admission
   path (which must check several queues atomically), not by push. *)
type 'a channel = {
  mutex : Mutex.t;
  nonempty : Condition.t;
  items : 'a Queue.t;
  mutable closed : bool;
}

let channel () =
  {
    mutex = Mutex.create ();
    nonempty = Condition.create ();
    items = Queue.create ();
    closed = false;
  }

let channel_pop ch =
  Mutex.lock ch.mutex;
  let rec wait () =
    if not (Queue.is_empty ch.items) then Some (Queue.pop ch.items)
    else if ch.closed then None
    else begin
      Condition.wait ch.nonempty ch.mutex;
      wait ()
    end
  in
  let v = wait () in
  Mutex.unlock ch.mutex;
  v

let channel_close ch =
  Mutex.lock ch.mutex;
  ch.closed <- true;
  Condition.broadcast ch.nonempty;
  Mutex.unlock ch.mutex

(* Close and return everything still queued, atomically — the degrade
   path, which must answer every stranded job instead of dropping it. *)
let channel_drain_close ch =
  Mutex.lock ch.mutex;
  ch.closed <- true;
  let stranded = List.of_seq (Queue.to_seq ch.items) in
  Queue.clear ch.items;
  Condition.broadcast ch.nonempty;
  Mutex.unlock ch.mutex;
  stranded

let channel_length ch =
  Mutex.lock ch.mutex;
  let n = Queue.length ch.items in
  Mutex.unlock ch.mutex;
  n

(* --- server state ------------------------------------------------------- *)

type conn = {
  fd : Unix.file_descr;
  out : Frame.response channel;
  (* Set by the reader thread once the peer's write side is gone, read
     by the accept loop to reap the connection's threads and fd so a
     long-lived server admits an unbounded sequence of clients under a
     bounded concurrent-connection limit. *)
  reader_done : bool Atomic.t;
  (* Flipped exactly once by [evict]; the fd itself is closed exactly
     once, by the reaper, after both threads exited. *)
  evicted : bool Atomic.t;
}

type job = {
  reply : conn;
  batch_id : int;
  events : Frame.event list;
  nevents : int;
  (* Executions so far, for the chaos plan's sticky window: bumped each
     time a shard domain picks the job up, so the re-run after a
     supervised restart is a distinguishable attempt. *)
  mutable attempts : int;
}

let latency_ring = 1024

type shard = {
  index : int;
  queue : job channel;
  (* Admitted sub-batches not yet answered (queued or in execution),
     maintained under the queue mutex on admission so the drain
     handshake can detect a fully idle shard without racing pushes. *)
  inflight : int Atomic.t;
  (* Everything below is shared with sampling readers, the supervisor
     and the shard domain, and therefore only touched under
     [stats_lock]. *)
  stats_lock : Mutex.t;
  mutable table : Session_table.t;
  mutable busy_ns : int;
  mutable rejected : int;
  ring : int array; (* recent sub-batch service times, ns *)
  mutable ring_pos : int;
  mutable ring_len : int;
  mutable pub_sessions : int;
  mutable pub_events : int;
  mutable pub_symbols : int;
  mutable pub_batches : int;
  mutable pub_bytes : int;
  mutable pub_windows : int;
  mutable pub_alarms : int;
  mutable pub_threshold : float;
  (* Cached median service time for the adaptive retry hint, refreshed
     every [percentile_refresh] jobs so the admission hot path never
     sorts the ring. *)
  mutable cached_p50_ns : int;
  mutable jobs_done : int;
  (* Supervisor state.  [poison] is the exception that killed the shard
     domain (set by the dying domain as its last act); [pending_job]
     the job it held, re-run first after a restart; [degraded] the
     rendered reason once the supervisor gave up on the shard. *)
  mutable poison : exn option;
  mutable pending_job : job option;
  mutable degraded : string option;
  mutable restarts : int;
  mutable consecutive_restarts : int;
}

type server = {
  cfg : config;
  shard_tab : shard array;
  stop : bool Atomic.t;
  draining : bool Atomic.t;
  live_conns : int Atomic.t;
  evictions : int Atomic.t;
  (* Connections owed a [Drained] response once every queue is idle. *)
  drain_lock : Mutex.t;
  mutable drain_waiters : conn list;
  (* Response frames already torn once by the chaos plan, keyed by
     {!Fault_plan.frame_key}: the resend after the client
     reconnects must pass, so torn-frame chaos always converges. *)
  torn_lock : Mutex.t;
  torn : (int64, unit) Hashtbl.t;
}

(* --- eviction and bounded response push --------------------------------- *)

let evict t conn =
  if not (Atomic.exchange conn.evicted true) then begin
    Atomic.incr t.evictions;
    (* Shutdown, not close: the reader observes EOF and the reaper —
       the single close site — releases the fd after both threads
       exit, so it is closed exactly once. *)
    try Unix.shutdown conn.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ()
  end

let push_response t conn response =
  Mutex.lock conn.out.mutex;
  let overflow =
    (not conn.out.closed)
    && Queue.length conn.out.items >= max_pending_responses
  in
  if not overflow then begin
    if not conn.out.closed then begin
      Queue.push response conn.out.items;
      Condition.signal conn.out.nonempty
    end
  end;
  Mutex.unlock conn.out.mutex;
  if overflow then evict t conn

(* --- stats -------------------------------------------------------------- *)

let percentile sorted n p =
  if n = 0 then 0
  else sorted.(min (n - 1) (int_of_float ((float_of_int (n - 1) *. p) +. 0.5)))

(* retry_after_ms, from load: the time to drain this queue at the
   median recent service rate, clamped to [floor, max_retry_after_ms].
   An idle or never-measured shard answers the configured floor. *)
let retry_hint ~floor ~p50_ns ~queue_depth =
  let est = (queue_depth + 1) * p50_ns / 1_000_000 in
  Stdlib.min max_retry_after_ms (Stdlib.max floor est)

let shard_retry_hint t sh =
  let queue_depth = channel_length sh.queue in
  Mutex.lock sh.stats_lock;
  let p50_ns = sh.cached_p50_ns in
  Mutex.unlock sh.stats_lock;
  retry_hint ~floor:t.cfg.retry_after_ms ~p50_ns ~queue_depth

let sample t sh =
  let queue_depth = channel_length sh.queue in
  Mutex.lock sh.stats_lock;
  let n = sh.ring_len in
  let sorted = Array.sub sh.ring 0 n in
  Array.sort compare sorted;
  let p50 = percentile sorted n 0.5 in
  let stats =
    {
      Frame.shard = sh.index;
      sessions_resident = sh.pub_sessions;
      events = sh.pub_events;
      symbols = sh.pub_symbols;
      batches = sh.pub_batches;
      rejected = sh.rejected;
      queue_depth;
      bytes_resident = sh.pub_bytes;
      busy_ns = sh.busy_ns;
      p50_batch_ns = p50;
      p99_batch_ns = percentile sorted n 0.99;
      restarts = sh.restarts;
      alive = (sh.degraded = None && sh.poison = None);
      degraded = sh.degraded <> None;
      retry_after_ms =
        retry_hint ~floor:t.cfg.retry_after_ms ~p50_ns:p50 ~queue_depth;
      windows = sh.pub_windows;
      alarms = sh.pub_alarms;
      threshold = sh.pub_threshold;
    }
  in
  Mutex.unlock sh.stats_lock;
  stats

let sample_all t = Array.to_list (Array.map (sample t) t.shard_tab)

let sample_health t =
  {
    Frame.shards = sample_all t;
    connections = Atomic.get t.live_conns;
    evictions = Atomic.get t.evictions;
    draining = Atomic.get t.draining;
  }

(* --- admission (reader side) -------------------------------------------- *)

(* All-or-nothing: lock the touched shard queues in ascending index
   order (the only multi-lock path, so no deadlock), admit only when
   every queue has room, and otherwise push nothing.  The inflight
   counters are bumped under the same mutexes as the pushes, so a shard
   with [inflight = 0] has nothing queued and nothing executing. *)
let admit cap subs =
  let qs = List.map (fun (sh, _) -> sh.queue) subs in
  List.iter (fun q -> Mutex.lock q.mutex) qs;
  let ok =
    List.for_all
      (fun q -> (not q.closed) && Queue.length q.items < cap)
      qs
  in
  if ok then
    List.iter2
      (fun q ((sh : shard), job) ->
        Queue.push job q.items;
        Atomic.incr sh.inflight;
        Condition.signal q.nonempty)
      qs subs;
  List.iter (fun q -> Mutex.unlock q.mutex) qs;
  ok

let shard_degraded sh =
  Mutex.lock sh.stats_lock;
  let d = sh.degraded in
  Mutex.unlock sh.stats_lock;
  d

let route_batch t conn ~id events =
  let nshards = Array.length t.shard_tab in
  let buckets = Array.make nshards [] in
  let counts = Array.make nshards 0 in
  List.iter
    (fun (e : Frame.event) ->
      let session =
        match e with
        | Frame.Data { session; _ } | Frame.End_of_session { session } ->
            session
      in
      let s = Frame.shard_of_session ~shards:nshards session in
      buckets.(s) <- e :: buckets.(s);
      counts.(s) <- counts.(s) + 1)
    events;
  let subs = ref [] in
  for s = nshards - 1 downto 0 do
    if counts.(s) > 0 then
      subs :=
        ( t.shard_tab.(s),
          {
            reply = conn;
            batch_id = id;
            events = List.rev buckets.(s);
            nevents = counts.(s);
            attempts = 0;
          } )
        :: !subs
  done;
  let reject hint_subs =
    List.iter
      (fun (sh, _) ->
        Mutex.lock sh.stats_lock;
        sh.rejected <- sh.rejected + 1;
        Mutex.unlock sh.stats_lock)
      !subs;
    let retry_after_ms =
      List.fold_left
        (fun acc (sh, _) -> Stdlib.max acc (shard_retry_hint t sh))
        t.cfg.retry_after_ms hint_subs
    in
    push_response t conn (Frame.Rejected { id; retry_after_ms })
  in
  if Atomic.get t.draining then reject !subs
  else begin
    (* A degraded shard's slice fails immediately with the shard's
       rendered fate; the rest of the batch is admitted all-or-nothing
       as usual, so a fatal shard fault degrades only the sessions
       routed to it.  Failures are sent only when the live slice is
       admitted: a rejected batch is resent whole, and answering part
       of it early would double-count on the resend. *)
    let degraded_subs, live_subs =
      List.partition (fun (sh, _) -> shard_degraded sh <> None) !subs
    in
    if live_subs = [] || admit t.cfg.queue_capacity live_subs then
      List.iter
        (fun (sh, (job : job)) ->
          let reason =
            match shard_degraded sh with
            | Some r -> r
            | None -> "shard degraded"
          in
          push_response t conn
            (Frame.Failed
               { id; shard = sh.index; events = job.nevents; reason }))
        degraded_subs
    else reject live_subs
  end

(* --- per-connection threads ---------------------------------------------- *)

(* A connection's reader and writer are threads of the accept domain:
   they block in read/write/select (which release the domain lock), and
   decoding costs a few microseconds per thousand symbols, so one domain
   keeps up with every shard. *)

let reader_loop t conn =
  let buf = Bytes.create 65536 in
  let r = Frame.reader () in
  let finished = ref false in
  (try
     while not !finished do
       let n = Unix.read conn.fd buf 0 (Bytes.length buf) in
       if n = 0 then finished := true
       else begin
         Frame.feed_bytes r buf ~pos:0 ~len:n;
         let rec drain () =
           if not !finished then
             match Frame.next_request r with
             | None -> ()
             | Some (Frame.Batch { id; events }) ->
                 route_batch t conn ~id events;
                 drain ()
             | Some Frame.Stats_request ->
                 push_response t conn (Frame.Stats (sample_all t));
                 drain ()
             | Some Frame.Health_request ->
                 push_response t conn (Frame.Health (sample_health t));
                 drain ()
             | Some Frame.Drain_request ->
                 Atomic.set t.draining true;
                 Mutex.lock t.drain_lock;
                 t.drain_waiters <- conn :: t.drain_waiters;
                 Mutex.unlock t.drain_lock;
                 drain ()
             | Some Frame.Quit ->
                 Atomic.set t.stop true;
                 finished := true
         in
         drain ()
       end
     done
   with
  | Parse_error.Error msg -> push_response t conn (Frame.Error_msg msg)
  | Unix.Unix_error _ -> (* connection torn down under the read *) ());
  Atomic.set conn.reader_done true

(* Write under a deadline: a peer that stops reading stalls the socket
   buffer, [select] times out, and the caller evicts — one stalled
   client never wedges a writer thread (or, transitively, the shard
   domains waiting to push acks to it). *)
let write_with_deadline fd bytes ~timeout_ms =
  let len = Bytes.length bytes in
  let off = ref 0 in
  let ok = ref true in
  while !ok && !off < len do
    match Unix.select [] [ fd ] [] (float_of_int timeout_ms /. 1000.) with
    | _, [], _ -> ok := false
    | _ -> off := !off + Unix.write fd bytes !off (len - !off)
  done;
  !ok

(* Chaos: tear this response frame on the wire?  Only acks are torn
   (the frames whose loss exercises the resend/re-acknowledge path),
   and each frame key at most once. *)
let should_tear t = function
  | Frame.Ack { id; shard; _ } -> (
      match t.cfg.chaos with
      | None -> false
      | Some plan ->
          let key = Fault_plan.frame_key ~batch_id:id ~shard in
          Mutex.lock t.torn_lock;
          let attempt = if Hashtbl.mem t.torn key then 1 else 0 in
          let tear = Fault_plan.tear plan ~key ~attempt in
          if tear then Hashtbl.replace t.torn key ();
          Mutex.unlock t.torn_lock;
          tear)
  | _ -> false

let writer_loop t conn =
  let b = Buffer.create 8192 in
  let send response =
    Buffer.clear b;
    Frame.write_response b Frame.Binary response;
    let bytes = Buffer.to_bytes b in
    if should_tear t response then begin
      (* Half a frame, then eviction: the client sees a truncated frame
         and EOF, reconnects, and resends — the journal answers the
         duplicate with the same incidents. *)
      let half = Bytes.length bytes / 2 in
      (try ignore (Unix.write conn.fd bytes 0 half)
       with Unix.Unix_error _ -> ());
      evict t conn;
      false
    end
    else if
      write_with_deadline conn.fd bytes ~timeout_ms:t.cfg.write_timeout_ms
    then true
    else begin
      evict t conn;
      false
    end
  in
  let rec drain () =
    match channel_pop conn.out with None -> () | Some _ -> drain ()
  in
  let rec loop () =
    match channel_pop conn.out with
    | None -> ()
    | Some response -> if send response then loop () else drain ()
  in
  try loop () with
  | Unix.Unix_error _ ->
      (* The client went away mid-write: keep draining so shard domains
         never block on this connection's acks. *)
      drain ()

(* --- shard domains ------------------------------------------------------ *)

let apply_job deadline sh (job : job) =
  let run () = Session_table.apply sh.table ~batch_id:job.batch_id job.events in
  match
    match deadline with
    | Some spec -> Deadline.with_deadline spec run
    | None -> run ()
  with
  | incidents ->
      Frame.Ack
        { id = job.batch_id; shard = sh.index; events = job.nevents; incidents }
  | exception Deadline.Exceeded budget ->
      Frame.Failed
        {
          id = job.batch_id;
          shard = sh.index;
          events = job.nevents;
          reason = Printf.sprintf "Deadline.Exceeded(budget=%dms)" budget;
        }
  (* lint: allow swallow — asynchronous exns re-raise to the supervisor; everything else fails its client with Fault custody, not the server *)
  | exception exn when not (Fault.is_asynchronous exn) ->
      Frame.Failed
        {
          id = job.batch_id;
          shard = sh.index;
          events = job.nevents;
          reason =
            Printf.sprintf "%s: %s"
              (Fault.severity_to_string (Fault.classify exn))
              (Printexc.to_string exn);
        }

let percentile_refresh = 32

let refresh_percentiles sh =
  let n = sh.ring_len in
  let sorted = Array.sub sh.ring 0 n in
  Array.sort compare sorted;
  sh.cached_p50_ns <- percentile sorted n 0.5

(* One sub-batch, start to answered.  Raises only when the domain is
   being killed: a chaos crash/hang fate (injected before the per-batch
   handler, i.e. outside apply_job's custody) or an asynchronous
   exception re-raised by apply_job — both leave the job unanswered for
   the supervisor to requeue or fail. *)
let process t sh (job : job) =
  let deadline = t.cfg.deadline in
  (match t.cfg.chaos with
  | None -> ()
  | Some plan ->
      let key = Fault_plan.job_key ~batch_id:job.batch_id ~shard:sh.index in
      let attempt = job.attempts in
      job.attempts <- job.attempts + 1;
      let trip () = Fault_plan.trip plan ~key ~attempt in
      (* A hang fate spins inside the armed per-batch deadline when one
         is configured (surfacing as Timeout); with none it raises
         [Hang_refused] (Fatal) instead of wedging the domain. *)
      (match deadline with
      | Some spec -> Deadline.with_deadline spec trip
      | None -> trip ()));
  let clock = t.cfg.clock in
  let t0 = clock () in
  let response = apply_job deadline sh job in
  let dt_ns = int_of_float ((clock () -. t0) *. 1e9) in
  Mutex.lock sh.stats_lock;
  sh.busy_ns <- sh.busy_ns + dt_ns;
  sh.ring.(sh.ring_pos) <- dt_ns;
  sh.ring_pos <- (sh.ring_pos + 1) mod latency_ring;
  sh.ring_len <- min (sh.ring_len + 1) latency_ring;
  sh.jobs_done <- sh.jobs_done + 1;
  if sh.jobs_done mod percentile_refresh = 0 then refresh_percentiles sh;
  sh.pub_sessions <- Session_table.sessions_resident sh.table;
  sh.pub_events <- Session_table.events_applied sh.table;
  sh.pub_symbols <- Session_table.symbols_applied sh.table;
  sh.pub_batches <- Session_table.batches_applied sh.table;
  sh.pub_bytes <- Session_table.bytes_resident sh.table;
  sh.pub_windows <- Session_table.windows_scored sh.table;
  sh.pub_alarms <- Session_table.alarm_windows sh.table;
  sh.pub_threshold <- Session_table.current_threshold sh.table;
  (* The shard made progress: a later crash starts a fresh restart
     budget, so any sticky-bounded chaos crash rate fully recovers. *)
  sh.consecutive_restarts <- 0;
  Mutex.unlock sh.stats_lock;
  push_response t job.reply response;
  Atomic.decr sh.inflight

let shard_loop t sh =
  (* The job in hand when the domain last crashed runs first (the queue
     has no push-front, and order is the determinism contract). *)
  let next_job () =
    Mutex.lock sh.stats_lock;
    let pending = sh.pending_job in
    sh.pending_job <- None;
    Mutex.unlock sh.stats_lock;
    match pending with Some _ as j -> j | None -> channel_pop sh.queue
  in
  let rec loop () =
    match next_job () with
    | None -> ()
    | Some job -> (
        match process t sh job with
        | () -> loop ()
        (* lint: allow swallow — this IS the supervisor handoff: the exn is recorded as poison and classified by Fault.classify in supervise *)
        | exception exn ->
            (* Domain poisoned: record custody for the supervisor as
               the last act and exit.  The job stays pending so a
               restart re-runs it (or a degrade fails it) — it is never
               silently dropped. *)
            Mutex.lock sh.stats_lock;
            sh.poison <- Some exn;
            sh.pending_job <- Some job;
            Mutex.unlock sh.stats_lock)
  in
  loop ()

(* --- setup -------------------------------------------------------------- *)

let journal_for cfg ~resume ~depth ~states index =
  match cfg.journal_dir with
  | None -> None
  | Some dir ->
      if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
      let context =
        Printf.sprintf "serve model=%s depth=%d states=%d threshold=%016Lx \
                        shards=%d shard=%d"
          cfg.model_tag depth states
          (Int64.bits_of_float cfg.threshold)
          cfg.shards index
      in
      (* The alarm-budget token appears only under adaptive
         thresholding, so static journals keep their historical context
         byte-for-byte; resuming a static journal with --alarm-budget
         (or vice versa) refuses via the context check. *)
      let context =
        match cfg.adaptive with
        | None -> context
        | Some a ->
            Printf.sprintf "%s alarm_budget=%016Lx" context
              (Int64.bits_of_float a.Adaptive_threshold.budget)
      in
      Some
        (Shard_journal.start ~resume ~context
           (Filename.concat dir (Printf.sprintf "shard-%d.journal" index)))

let make_shard cfg ~depth ~states index =
  let journal = journal_for cfg ~resume:cfg.resume ~depth ~states index in
  let table =
    Session_table.create ~scorer:cfg.scorer ~threshold:cfg.threshold
      ?adaptive:cfg.adaptive ?journal ~shard:index ()
  in
  {
    index;
    queue = channel ();
    inflight = Atomic.make 0;
    table;
    stats_lock = Mutex.create ();
    busy_ns = 0;
    rejected = 0;
    ring = Array.make latency_ring 0;
    ring_pos = 0;
    ring_len = 0;
    pub_sessions = Session_table.sessions_resident table;
    pub_events = 0;
    pub_symbols = 0;
    pub_batches = 0;
    pub_bytes = Session_table.bytes_resident table;
    pub_windows = Session_table.windows_scored table;
    pub_alarms = Session_table.alarm_windows table;
    pub_threshold = Session_table.current_threshold table;
    cached_p50_ns = 0;
    jobs_done = 0;
    poison = None;
    pending_job = None;
    degraded = None;
    restarts = 0;
    consecutive_restarts = 0;
  }

let listen_socket = function
  | Unix_socket path ->
      (try Unix.unlink path with Unix.Unix_error _ -> ());
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX path);
      Unix.listen fd 64;
      fd
  | Tcp (host, port) ->
      let inet =
        match Unix.inet_addr_of_string host with
        | addr -> addr
        | exception Failure _ -> (
            match Unix.gethostbyname host with
            | { Unix.h_addr_list = [||]; _ } ->
                (* lint: allow partiality — documented precondition *)
                invalid_arg (Printf.sprintf "Serve: unknown host %S" host)
            | entry -> entry.Unix.h_addr_list.(0)
            | exception Not_found ->
                (* lint: allow partiality — documented precondition *)
                invalid_arg (Printf.sprintf "Serve: unknown host %S" host))
      in
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd (Unix.ADDR_INET (inet, port));
      Unix.listen fd 64;
      fd

(* --- the shard lifecycle supervisor ------------------------------------- *)

(* Answer a job the shard will never execute. *)
let fail_job t sh reason (job : job) =
  push_response t job.reply
    (Frame.Failed
       { id = job.batch_id; shard = sh.index; events = job.nevents; reason });
  Atomic.decr sh.inflight

(* A shard domain died: classify its poison through the one policy
   point and either restart it (Transient, journal attached, budget
   left — state recovered exactly where the last committed batch left
   it, the crashed job re-run) or degrade the shard (queue closed, its
   job and every stranded one answered [Failed] with the rendered
   fate, all future slices failed at admission).  Only the poisoned
   shard's sessions are affected either way. *)
let supervise t domains ~depth ~states =
  Array.iteri
    (fun i sh ->
      let poison =
        Mutex.lock sh.stats_lock;
        let p = sh.poison in
        Mutex.unlock sh.stats_lock;
        p
      in
      match poison with
      | None -> ()
      | Some exn ->
          (* The domain set poison as its last act; join is prompt. *)
          (match domains.(i) with
          | Some d ->
              Domain.join d;
              domains.(i) <- None
          | None -> ());
          let severity = Fault.classify exn in
          let restartable =
            severity = Fault.Transient
            && t.cfg.journal_dir <> None
            && sh.consecutive_restarts < t.cfg.max_restarts
          in
          if restartable then begin
            (* Rebuild the shard's state from its journal — committed
               batches and session snapshots only, exactly the state
               the acks promised.  The dead domain's journal handle is
               abandoned (it will never write again); the leak is
               bounded by the restart budget. *)
            let journal =
              journal_for t.cfg ~resume:true ~depth ~states sh.index
            in
            let table =
              Session_table.create ~scorer:t.cfg.scorer
                ~threshold:t.cfg.threshold ?adaptive:t.cfg.adaptive ?journal
                ~shard:sh.index ()
            in
            Mutex.lock sh.stats_lock;
            sh.table <- table;
            sh.poison <- None;
            sh.restarts <- sh.restarts + 1;
            sh.consecutive_restarts <- sh.consecutive_restarts + 1;
            sh.pub_sessions <- Session_table.sessions_resident table;
            sh.pub_bytes <- Session_table.bytes_resident table;
            sh.pub_windows <- Session_table.windows_scored table;
            sh.pub_alarms <- Session_table.alarm_windows table;
            sh.pub_threshold <- Session_table.current_threshold table;
            Mutex.unlock sh.stats_lock;
            domains.(i) <- Some (Domain.spawn (fun () -> shard_loop t sh))
          end
          else begin
            let reason =
              Printf.sprintf "shard %d degraded (%s): %s" sh.index
                (Fault.severity_to_string severity)
                (Printexc.to_string exn)
            in
            let pending =
              Mutex.lock sh.stats_lock;
              sh.degraded <- Some reason;
              let p = sh.pending_job in
              sh.pending_job <- None;
              Mutex.unlock sh.stats_lock;
              p
            in
            Option.iter (fail_job t sh reason) pending;
            List.iter (fail_job t sh reason) (channel_drain_close sh.queue)
          end)
    t.shard_tab

(* Answer pending [Drained] waiters once every shard is idle:
   [inflight] counters cover both queued and executing sub-batches, so
   zero everywhere (with intake rejecting under [draining]) means the
   serve layer holds no work. *)
let answer_drain t =
  if
    Atomic.get t.draining
    && Array.for_all (fun sh -> Atomic.get sh.inflight = 0) t.shard_tab
  then begin
    Mutex.lock t.drain_lock;
    let waiters = t.drain_waiters in
    t.drain_waiters <- [];
    Mutex.unlock t.drain_lock;
    if waiters <> [] then begin
      let batches =
        Array.fold_left
          (fun acc sh ->
            Mutex.lock sh.stats_lock;
            let b = sh.pub_batches in
            Mutex.unlock sh.stats_lock;
            acc + b)
          0 t.shard_tab
      in
      List.iter
        (fun conn -> push_response t conn (Frame.Drained { batches }))
        waiters
    end
  end

(* --- the run loop ------------------------------------------------------- *)

let run ?(on_ready = fun () -> ()) cfg =
  if cfg.shards <= 0 then
    (* lint: allow partiality — documented precondition *)
    invalid_arg (Printf.sprintf "Serve.run: shards=%d" cfg.shards);
  if cfg.queue_capacity <= 0 then
    (* lint: allow partiality — documented precondition *)
    invalid_arg (Printf.sprintf "Serve.run: queue_capacity=%d"
                   cfg.queue_capacity);
  if cfg.max_restarts < 0 then
    (* lint: allow partiality — documented precondition *)
    invalid_arg (Printf.sprintf "Serve.run: max_restarts=%d" cfg.max_restarts);
  if cfg.write_timeout_ms <= 0 then
    (* lint: allow partiality — documented precondition *)
    invalid_arg (Printf.sprintf "Serve.run: write_timeout_ms=%d"
                   cfg.write_timeout_ms);
  let previous_sigpipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  Fun.protect
    ~finally:(fun () -> Sys.set_signal Sys.sigpipe previous_sigpipe)
  @@ fun () ->
  let automaton = Flat_automaton.automaton cfg.scorer in
  let depth = Flat_automaton.depth automaton in
  let states = Flat_automaton.states automaton in
  let shard_tab =
    Array.init cfg.shards (make_shard cfg ~depth ~states)
  in
  let t =
    {
      cfg;
      shard_tab;
      stop = Atomic.make false;
      draining = Atomic.make false;
      live_conns = Atomic.make 0;
      evictions = Atomic.make 0;
      drain_lock = Mutex.create ();
      drain_waiters = [];
      torn_lock = Mutex.create ();
      torn = Hashtbl.create 64;
    }
  in
  let domains =
    Array.map
      (fun sh -> Some (Domain.spawn (fun () -> shard_loop t sh)))
      shard_tab
  in
  let lfd = listen_socket cfg.address in
  on_ready ();
  let conns = ref [] in
  (* Retire connections whose peer has hung up: join the reader thread
     (it has already exited), close the response channel so the writer
     flushes what is queued and exits, then release the fd.  Without this the
     connection list only grows and [max_connections] would cap the
     server's lifetime total instead of its concurrency. *)
  let reap () =
    let finished, live =
      List.partition (fun (c, _, _) -> Atomic.get c.reader_done) !conns
    in
    conns := live;
    List.iter
      (fun (c, rd, wd) ->
        Thread.join rd;
        channel_close c.out;
        Thread.join wd;
        Atomic.decr t.live_conns;
        try Unix.close c.fd with Unix.Unix_error _ -> ())
      finished
  in
  while not (Atomic.get t.stop) do
    reap ();
    supervise t domains ~depth ~states;
    answer_drain t;
    (* A poll instead of a blocking accept, so a Quit observed by any
       reader thread stops the loop within one tick. *)
    match Unix.select [ lfd ] [] [] 0.05 with
    | [], _, _ -> ()
    | _ :: _, _, _ -> (
        match Unix.accept lfd with
        | exception Unix.Unix_error _ -> (* client vanished pre-accept *) ()
        | fd, _ ->
            if List.length !conns >= cfg.max_connections then
              (try Unix.close fd with Unix.Unix_error _ -> ())
            else begin
              let conn =
                {
                  fd;
                  out = channel ();
                  reader_done = Atomic.make false;
                  evicted = Atomic.make false;
                }
              in
              Atomic.incr t.live_conns;
              let rd = Thread.create (reader_loop t) conn in
              let wd = Thread.create (writer_loop t) conn in
              conns := (conn, rd, wd) :: !conns
            end)
  done;
  (* Orderly drain: stop intake, let every admitted batch finish and
     every produced response flush, then tear the connections down. *)
  (try Unix.close lfd with Unix.Unix_error _ -> ());
  (match cfg.address with
  | Unix_socket path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | Tcp _ -> ());
  List.iter
    (fun (c, _, _) ->
      try Unix.shutdown c.fd Unix.SHUTDOWN_RECEIVE
      with Unix.Unix_error _ -> ())
    !conns;
  List.iter (fun (_, rd, _) -> Thread.join rd) !conns;
  Array.iter (fun sh -> channel_close sh.queue) shard_tab;
  Array.iter (function Some d -> Domain.join d | None -> ()) domains;
  (* A crash racing the shutdown leaves a poisoned shard with work in
     hand or still queued; answer it rather than drop it silently. *)
  Array.iter
    (fun sh ->
      let poisoned, pending =
        Mutex.lock sh.stats_lock;
        let r = (sh.poison <> None, sh.pending_job) in
        sh.pending_job <- None;
        Mutex.unlock sh.stats_lock;
        r
      in
      if poisoned then begin
        let reason = "server shutting down" in
        Option.iter (fail_job t sh reason) pending;
        List.iter (fail_job t sh reason) (channel_drain_close sh.queue)
      end)
    shard_tab;
  List.iter (fun (c, _, _) -> channel_close c.out) !conns;
  List.iter (fun (_, _, wd) -> Thread.join wd) !conns;
  List.iter
    (fun (c, _, _) -> try Unix.close c.fd with Unix.Unix_error _ -> ())
    !conns;
  sample_all t
