(* The two socket workloads, stream and fleet: launch `seqdiv serve`,
   set up, drive the timed phase through Loadgen, observe the server
   from outside, and check every acknowledged output. *)

open Seqdiv_stream

type env = {
  seqdiv : string;  (* the seqdiv executable *)
  dir : string;  (* this run's scratch directory, inside the checkout *)
}

(* One stretch of a timed phase. *)
type stretch = {
  wall_s : float;  (* first send to last ack *)
  sent : int;  (* symbols *)
  latencies : Measure.samples;  (* ms *)
}

(* What one timed phase measured. *)
type phase = {
  setup_s : float list;  (* one per set-up *)
  stretches : stretch list;  (* five on stream, one on fleet *)
  symbols : int;  (* acknowledged in the timed phase *)
  rss_mb : float;
  server_cpu_s : float;
  client_cpu_s : float;
  before : Frame.shard_stats;
  after : Frame.shard_stats;
  late_ms : Measure.samples option;  (* open loop only *)
  gc : Server.gc_state option;
  attempted : int;
  failed : int;
  problems : string list;
  argv : string list;
}

let wall_s p = List.fold_left (fun acc s -> acc +. s.wall_s) 0.0 p.stretches

let latencies p = Measure.merge (List.map (fun s -> s.latencies) p.stretches)

let shard0 = function
  | [ s ] -> s
  | l -> failwith (Printf.sprintf "expected one shard, got %d" (List.length l))

let client_cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Launch, with runtime events in traced runs; [argv] is recorded. *)
let launch env ~traced ~tag args =
  let socket = Filename.concat env.dir (tag ^ ".sock") in
  let log = Filename.concat env.dir (tag ^ ".log") in
  let gc_dir = Filename.concat env.dir (tag ^ "-events") in
  let extra =
    if traced then begin
      Measure.mkdir_p gc_dir;
      [ "OCAML_RUNTIME_EVENTS_START=1"; "OCAML_RUNTIME_EVENTS_DIR=" ^ gc_dir ]
    end
    else []
  in
  let server =
    Server.launch ~exe:env.seqdiv ~socket ~log ~env:extra
      ("--shards" :: "1" :: args)
  in
  let gc = if traced then Some (Server.gc_attach ~dir:gc_dir server) else None in
  (server, gc)

(* Compare every session's acknowledged log with its expected one:
   (sessions checked, sessions differing, problems). *)
let check_logs conn ~sessions ~expected =
  let bad = ref 0 and first = ref None in
  List.iter
    (fun id ->
      if Loadgen.log conn id <> expected id then begin
        incr bad;
        if !first = None then first := Some id
      end)
    sessions;
  let problems =
    match !first with
    | None -> []
    | Some id ->
        [ Printf.sprintf "%d session logs differ from the serial replay (first: session %d)"
            !bad id ]
  in
  (List.length sessions, !bad, problems)

let accounting conn ~before ~after ~timed_symbols =
  let problems = ref [] and failed = ref 0 in
  let note n msg =
    if n > 0 then begin
      failed := !failed + n;
      problems := msg :: !problems
    end
  in
  note conn.Loadgen.failed (Printf.sprintf "%d batches answered Failed" conn.Loadgen.failed);
  note conn.Loadgen.violations
    (Printf.sprintf "%d acks for unknown, settled or over-counted batches"
       conn.Loadgen.violations);
  note
    (abs (conn.Loadgen.sent_batches - conn.Loadgen.acked_batches - conn.Loadgen.failed))
    (Printf.sprintf "%d batches sent, %d acked" conn.Loadgen.sent_batches
       conn.Loadgen.acked_batches);
  note
    (if conn.Loadgen.sent_symbols <> conn.Loadgen.acked_symbols then 1 else 0)
    (Printf.sprintf "%d symbols sent, %d acked" conn.Loadgen.sent_symbols
       conn.Loadgen.acked_symbols);
  let applied = after.Frame.symbols - before.Frame.symbols in
  note
    (if applied <> timed_symbols then 1 else 0)
    (Printf.sprintf "server applied %d symbols in the timed phase, client sent %d"
       applied timed_symbols);
  (!failed, List.rev !problems)

(* Stop a set-up server that is not kept: (batches sent, failures). *)
let retire (server, gc, conn) =
  let counts =
    (conn.Loadgen.sent_batches, conn.Loadgen.failed + conn.Loadgen.violations)
  in
  Loadgen.close conn;
  Option.iter Server.gc_finish gc;
  Server.stop server;
  counts

(* Several set-ups, keeping the last server; the median is setup_s. *)
let set_up env ~traced ~tag ~reps ~args ~prepare =
  let times = ref [] and attempted = ref 0 and failed = ref 0 in
  let rec go rep =
    let tag = Printf.sprintf "%s-%d" tag rep in
    let t0 = Measure.now () in
    let server, gc = launch env ~traced ~tag (args tag) in
    let conn = Loadgen.connect server.Server.socket in
    prepare conn;
    times := (Measure.now () -. t0) :: !times;
    if rep < reps then begin
      let sent, bad = retire (server, gc, conn) in
      attempted := !attempted + sent;
      failed := !failed + bad;
      go (rep + 1)
    end
    else (server, gc, conn)
  in
  let server, gc, conn = go 1 in
  (server, gc, conn, List.rev !times, !attempted, !failed)

let finish_phase ~server ~gc ~conn ~setup ~prior_attempted ~prior_failed ~stretches
    ~cpu0 ~ccpu0 ~before ~timed_symbols ~late ~check =
  let client_cpu_s = client_cpu () -. ccpu0 in
  let after = shard0 (Loadgen.stats conn) in
  let server_cpu_s = Server.cpu_s server -. cpu0 in
  Option.iter Server.gc_finish gc;
  let checked, failed_logs, log_problems = check conn in
  let rss_mb = Server.peak_rss_mb server in
  let failed_acc, acc_problems = accounting conn ~before ~after ~timed_symbols in
  (* Operations: every batch sent, and every session log compared. *)
  let attempted = prior_attempted + conn.Loadgen.sent_batches + checked in
  Loadgen.close conn;
  Server.stop server;
  {
    setup_s = setup;
    stretches;
    symbols = timed_symbols;
    rss_mb;
    server_cpu_s;
    client_cpu_s;
    before;
    after;
    late_ms = late;
    gc = Option.map (fun g -> g.Server.st) gc;
    attempted;
    failed = prior_failed + failed_acc + failed_logs;
    problems = acc_problems @ log_problems;
    argv = server.Server.argv;
  }

let poll_of gc =
  match gc with
  | None -> ignore
  | Some g ->
      let last = ref 0.0 in
      fun () ->
        let now = Measure.now () in
        if now -. !last > 0.01 then begin
          last := now;
          Server.gc_poll g
        end

(* --- stream --------------------------------------------------------------- *)

let stream_inflight = 4

(* Run whole rounds from [round] until [stop r] holds at the start of
   round [r]; returns that round. *)
let stream_rounds ?poll conn st ~round ~stop =
  let r = ref round and j = ref 0 in
  let next () =
    if !j = Traffic.stream_batches_per_round then begin
      j := 0;
      incr r
    end;
    if !j = 0 && stop !r then None
    else begin
      let b = Traffic.stream_batch st ~round:!r !j in
      incr j;
      Some b
    end
  in
  Loadgen.closed_loop ?poll conn ~inflight:stream_inflight next;
  !r

(* The timed phase runs in [stream_stretches] stretches, so that set-up
   and the timed figures are sampled throughout the run: the machine
   runs in fast and slow phases seconds long, and CPU steal comes in
   bursts.  Set-up is a server start plus one warm-up round, tens of
   milliseconds, and [stream_setup_reps] set-ups are timed before each
   stretch.  Before the first stretch the last set-up's server becomes
   the timed server; before the others the set-up servers are stopped
   again while the timed server idles. *)
let stream_stretches = 5
let stream_setup_reps = 3

let stream ?on_settle env (st : Traffic.stream) ~seconds ~traced =
  let args _ = st.Traffic.s_model.Traffic.serve_args in
  let set_up_stream tag =
    set_up env ~traced ~tag ~reps:stream_setup_reps ~args ~prepare:(fun conn ->
        (* the unmeasured warm-up round *)
        ignore (stream_rounds conn st ~round:0 ~stop:(fun r -> r >= 1)))
  in
  let server, gc, conn, setup, attempted, failed = set_up_stream "stream" in
  let setup = ref setup and prior_attempted = ref attempted and prior_failed = ref failed in
  let before = shard0 (Loadgen.stats conn) in
  let sent0 = conn.Loadgen.sent_symbols in
  conn.Loadgen.on_settle <- on_settle;
  Option.iter Server.gc_start gc;
  let poll = poll_of gc in
  let cpu0 = Server.cpu_s server and ccpu0 = client_cpu () in
  let stretches = ref [] and last = ref 1 in
  for k = 1 to stream_stretches do
    if k > 1 then begin
      let s, g, c, times, attempted, failed =
        set_up_stream (Printf.sprintf "stream%d" k)
      in
      let sent, bad = retire (s, g, c) in
      setup := !setup @ times;
      prior_attempted := !prior_attempted + attempted + sent;
      prior_failed := !prior_failed + failed + bad
    end;
    let latencies = Measure.samples () in
    conn.Loadgen.recording <- Some latencies;
    let sent = conn.Loadgen.sent_symbols and t0 = Measure.now () in
    let stop_at = t0 +. (seconds /. float_of_int stream_stretches) in
    last :=
      stream_rounds ~poll conn st ~round:!last ~stop:(fun _ -> Measure.now () >= stop_at);
    stretches :=
      { wall_s = conn.Loadgen.last_settled -. t0; sent = conn.Loadgen.sent_symbols - sent;
        latencies }
      :: !stretches
  done;
  let last = !last in
  conn.Loadgen.recording <- None;
  conn.Loadgen.on_settle <- None;
  let timed_symbols = conn.Loadgen.sent_symbols - sent0 in
  let check conn =
    let sessions =
      List.init (last * Traffic.stream_sessions) Fun.id
    in
    check_logs conn ~sessions ~expected:(Traffic.stream_expected st)
  in
  finish_phase ~server ~gc ~conn ~setup:!setup ~prior_attempted:!prior_attempted
    ~prior_failed:!prior_failed ~stretches:(List.rev !stretches) ~cpu0 ~ccpu0 ~before
    ~timed_symbols ~late:None ~check

(* --- fleet ---------------------------------------------------------------- *)

(* The open loop's fixed rate, batches per second: half the closed-loop
   capacity this traffic was measured to sustain (the figure and its
   machine are in perfbench/DESIGN.md). *)
let fleet_rate = 100.0

let fleet_batches ~seconds = int_of_float (Float.round (fleet_rate *. seconds))

let fleet_open conn (f : Traffic.fleet) =
  for j = 0 to Traffic.fleet_setup_batches - 1 do
    Loadgen.wait_below conn 4;
    ignore (Loadgen.send conn (Traffic.fleet_setup_batch f j))
  done;
  Loadgen.drain conn

let fleet_close conn =
  for j = 0 to Traffic.fleet_setup_batches - 1 do
    Loadgen.wait_below conn 4;
    ignore (Loadgen.send conn (Traffic.fleet_teardown_batch j))
  done;
  Loadgen.drain conn

let fleet_args env (f : Traffic.fleet) tag =
  let journal = Filename.concat env.dir (tag ^ "-journal") in
  f.Traffic.f_model.Traffic.serve_args @ [ "--journal-dir"; journal ]

let fleet_check f conn =
  fleet_close conn;
  check_logs conn
    ~sessions:(List.init Traffic.fleet_sessions Fun.id)
    ~expected:(Traffic.fleet_expected f)

(* Set-up opens 16,384 journalled sessions, about two seconds. *)
let fleet_setup_reps = 3

let fleet ?on_settle env (f : Traffic.fleet) ~traced =
  let server, gc, conn, setup, prior_attempted, prior_failed =
    set_up env ~traced ~tag:"fleet" ~reps:fleet_setup_reps ~args:(fleet_args env f)
      ~prepare:(fun conn -> fleet_open conn f)
  in
  let before = shard0 (Loadgen.stats conn) in
  let sent0 = conn.Loadgen.sent_symbols in
  let latencies = Measure.samples () in
  conn.Loadgen.recording <- Some latencies;
  conn.Loadgen.on_settle <- on_settle;
  Option.iter Server.gc_start gc;
  let cpu0 = Server.cpu_s server and ccpu0 = client_cpu () in
  let t0 = Measure.now () in
  let late =
    Loadgen.open_loop ~poll:(poll_of gc) conn ~rate:fleet_rate
      ~batches:f.Traffic.f_timed_batches (Traffic.fleet_timed_batch f)
  in
  let wall_s = conn.Loadgen.last_settled -. t0 in
  conn.Loadgen.recording <- None;
  conn.Loadgen.on_settle <- None;
  let timed_symbols = conn.Loadgen.sent_symbols - sent0 in
  finish_phase ~server ~gc ~conn ~setup ~prior_attempted ~prior_failed
    ~stretches:[ { wall_s; sent = timed_symbols; latencies } ]
    ~cpu0 ~ccpu0 ~before ~timed_symbols ~late:(Some late) ~check:(fleet_check f)
