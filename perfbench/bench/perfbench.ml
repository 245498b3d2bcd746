(* perfbench: the repository benchmark.

     perfbench.exe --workload stream|fleet|grid --seed N --seconds S
                   --trace 0|1 --seqdiv PATH

   Prints a detail object (every figure with its unit and sample count,
   plus the run's environment), then, as the last line, the result:
   {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
   metrics are the end-to-end ones; with --trace 1 they are the layer
   ledger (see Ledger).  Exits 1 when any correctness check fails or the
   run cannot finish, for instance when the server stops answering.

   perfbench/run.py builds this executable and `seqdiv`, then runs it;
   perfbench/DESIGN.md explains the workloads and metrics. *)

open Seqdiv_util
open Seqdiv_synth
open Seqdiv_core

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  seqdiv : string;
}

let usage () =
  prerr_endline
    "usage: perfbench.exe --workload stream|fleet|grid --seed N --seconds S \
     --trace 0|1 --seqdiv PATH";
  exit 2

let parse () =
  let rec go a = function
    | [] -> a
    | "--workload" :: w :: rest -> go { a with workload = w } rest
    | "--seed" :: s :: rest -> go { a with seed = int_of_string s } rest
    | "--seconds" :: s :: rest -> go { a with seconds = float_of_string s } rest
    | "--trace" :: ("0" | "1" as t) :: rest -> go { a with trace = t = "1" } rest
    | "--seqdiv" :: p :: rest -> go { a with seqdiv = p } rest
    | _ -> usage ()
  in
  match
    go
      { workload = ""; seed = 0; seconds = 10.0; trace = false; seqdiv = "" }
      (List.tl (Array.to_list Sys.argv))
  with
  | a when List.mem a.workload [ "stream"; "fleet"; "grid" ] && a.seconds > 0.0 -> a
  | _ -> usage ()
  | exception Failure _ -> usage ()

(* --- end-to-end results ------------------------------------------------ *)

type result = {
  metrics : Measure.metric list;  (* end to end *)
  details : Measure.metric list;  (* printed, not gated *)
  info : (string * Measure.json) list;
  attempted : int;
  failed : int;
  problems : string list;
}

let nproc = Domain.recommended_domain_count ()

let median xs = Stats.median (Array.of_list xs)

(* A socket phase reports the median over its stretches (five on
   stream, one on fleet) of each stretch's rate and latency percentiles:
   CPU steal on a VM comes in bursts of seconds, and a burst that slows
   one or two stretches leaves the figures where they were. *)
let of_phase (p : Sockets.phase) =
  let stretches = p.Sockets.stretches in
  let per f = median (List.map f stretches) in
  let lat q (s : Sockets.stretch) = Measure.percentile s.Sockets.latencies q in
  let all = Sockets.latencies p in
  let n = Measure.count all in
  let failed_frac = float_of_int p.Sockets.failed /. float_of_int p.Sockets.attempted in
  {
    metrics =
      [
        Measure.metric ~n:(List.length p.Sockets.setup_s) "setup_s" "s"
          (median p.Sockets.setup_s);
        Measure.metric ~n:(List.length stretches) "sym_per_s" "sym/s"
          (per (fun s -> float_of_int s.Sockets.sent /. s.Sockets.wall_s));
        Measure.metric ~n "batch_p50_ms" "ms" (per (lat 50.0));
        Measure.metric ~n "batch_p99_ms" "ms" (per (lat 99.0));
        Measure.metric "rss_mb" "MiB" p.Sockets.rss_mb;
      ];
    details =
      [
        Measure.metric ~n:p.Sockets.attempted "failed_frac" "ratio" failed_frac;
        (* the fewest in any stretch *)
        Measure.metric "batch_p99_beyond" "count"
          (float_of_int
             (List.fold_left
                (fun acc s -> Stdlib.min acc (Measure.above s.Sockets.latencies (lat 99.0 s)))
                max_int stretches));
        Measure.metric "wall_s" "s" (Sockets.wall_s p);
        Measure.metric "symbols" "sym" (float_of_int p.Sockets.symbols);
        Measure.metric ~n "batch_p99_all_ms" "ms" (Measure.percentile all 99.0);
      ];
    info = [ ("server_argv", Measure.Arr (List.map (fun s -> Measure.Str s) p.Sockets.argv)) ];
    attempted = p.Sockets.attempted;
    failed = p.Sockets.failed;
    problems = p.Sockets.problems;
  }

(* Cell times are bimodal: stide and markov cells take microseconds,
   lnb and nn cells tenths of a millisecond, and the median of all cells
   jumps between the two groups.  The grid's batch_p50_ms is therefore
   the geometric mean of the detectors' own median cell times: each
   median stays inside one family, and a change in any family moves the
   figure by the same share.  Returns the per-detector medians too. *)
let cell_p50 (g : Grid.run) =
  let per_detector =
    List.map
      (fun (d, s) ->
        Measure.metric ~n:(Measure.count s) ("cell_p50_ms." ^ d) "ms"
          (Measure.percentile s 50.0))
      g.Grid.probe.Grid.detector_cells_ms
  in
  let logs = List.map (fun m -> log m.Measure.value) per_detector in
  (exp (Stats.mean (Array.of_list logs)), per_detector)

let of_grid (g : Grid.run) =
  let n = Measure.count g.Grid.cells_ms in
  let lat q = Measure.percentile g.Grid.cells_ms q in
  let reps = List.length g.Grid.maps_s in
  let maps_s = median g.Grid.maps_s in
  let p50, per_detector = cell_p50 g in
  {
    metrics =
      [
        Measure.metric ~n:(List.length g.Grid.setup_s) "setup_s" "s"
          (median g.Grid.setup_s);
        Measure.metric ~n:reps "sym_per_s" "sym/s"
          (float_of_int (g.Grid.windows / reps) /. maps_s);
        Measure.metric ~n "batch_p50_ms" "ms" p50;
        Measure.metric ~n "batch_p99_ms" "ms" (lat 99.0);
        Measure.metric "rss_mb" "MiB" g.Grid.rss_mb;
      ];
    details =
      [
        Measure.metric ~n:reps "maps_s" "s" maps_s;
        Measure.metric ~n:g.Grid.cells "failed_frac" "ratio"
          (float_of_int g.Grid.failed /. float_of_int g.Grid.cells);
        Measure.metric "batch_p99_beyond" "count"
          (float_of_int (Measure.above g.Grid.cells_ms (lat 99.0)));
        Measure.metric "jobs" "count" (float_of_int nproc);
      ]
      @ per_detector;
    info = [];
    attempted = g.Grid.cells;
    failed = g.Grid.failed;
    problems = g.Grid.problems;
  }

let print_result ~args ~metrics ~details ~info ~attempted ~failed ~problems =
  let unmeasured =
    List.filter_map
      (fun m ->
        if Float.is_finite m.Measure.value then None
        else Some ("no measurement for " ^ m.Measure.name))
      metrics
  in
  let problems = problems @ unmeasured in
  let failed = failed + List.length unmeasured in
  let correct = failed = 0 && problems = [] in
  let detail =
    Measure.Obj
      ([
         ("workload", Measure.Str args.workload);
         ("seed", Measure.Int args.seed);
         ("seconds", Measure.Num args.seconds);
         ("trace", Measure.Bool args.trace);
         ("nproc", Measure.Int nproc);
         ("ocaml", Measure.Str Sys.ocaml_version);
         ("problems", Measure.Arr (List.map (fun s -> Measure.Str s) problems));
         ("metrics", Measure.detail_json (metrics @ details));
       ]
      @ info)
  in
  print_endline (Measure.to_string detail);
  let final =
    Measure.Obj
      [
        ("correct", Measure.Bool correct);
        ("attempted", Measure.Int attempted);
        ("failed", Measure.Int failed);
        ("metrics", Measure.metrics_json metrics);
      ]
  in
  print_endline (Measure.to_string final);
  if not correct then begin
    List.iter (fun p -> prerr_endline ("perfbench: " ^ p)) problems;
    exit 1
  end

let run_dir () =
  let dir = Filename.concat ".perfbench" (Printf.sprintf "run-%d" (Unix.getpid ())) in
  Measure.remove_tree dir;
  Measure.mkdir_p dir;
  dir

let print ~args (r : result) =
  print_result ~args ~metrics:r.metrics ~details:r.details ~info:r.info
    ~attempted:r.attempted ~failed:r.failed ~problems:r.problems

(* --- the traced run ------------------------------------------------------ *)

(* Every per-layer metric, in BENCHMARK.json's order.  A traced run of
   any workload reports all of them, each measured on the workload its
   layer is exercised by (see perfbench/DESIGN.md). *)
let ledger_names =
  [
    "flat_automaton.sym_per_s"; "flat_automaton.words_per_sym";
    "online.sym_per_s"; "online.words_per_sym"; "online.snapshot_bytes";
    "session_table.sym_per_s"; "session_table.words_per_sym";
    "session_table.apply_p50_us"; "session_table.apply_p99_us";
    "session_table.resident"; "session_table.stats_us";
    "shard_journal.sym_per_s"; "shard_journal.words_per_sym";
    "shard_journal.apply_p50_us"; "shard_journal.apply_p99_us";
    "shard_journal.bytes_per_batch"; "shard_journal.compactions";
    "frame.encode_us"; "frame.decode_us"; "frame.ack_us";
    "frame.wire_bytes_per_sym"; "frame.words_per_sym";
    "serve.busy_frac"; "serve.apply_p50_us"; "serve.apply_p99_us";
    "serve.outside_apply_p50_us"; "serve.cpu_ns_per_sym"; "serve.rejections";
    "serve.minor_gcs_per_msym"; "serve.gc_pause_p99_us"; "serve.gc_pause_max_ms";
    "client.late_p99_ms"; "client.cpu_s";
    "engine.train_s"; "engine.score_s"; "engine.train_executed";
    "engine.tries_built"; "engine.trie_nodes"; "neural.train_s";
    "lane_brodley.train_s"; "pool.speedup"; "seq_trie.build_s";
    "overhead.setup_s"; "overhead.sym_per_s"; "overhead.batch_p50_ms";
    "overhead.batch_p99_ms"; "overhead.rss_mb";
  ]

let grid_rows (g : Grid.run) ~suite ~serial_s =
  let st = g.Grid.stats and reps = float_of_int (List.length g.Grid.maps_s) in
  let train name =
    Option.value ~default:0.0 (Hashtbl.find_opt g.Grid.probe.Grid.train_s name) /. reps
  in
  let training = suite.Suite.training in
  let p = suite.Suite.params in
  let max_len = Stdlib.max p.Suite.dw_max (p.Suite.as_max + 1) in
  let trie_s =
    List.init 3 (fun _ ->
        let t0 = Measure.now () in
        ignore (Seqdiv_stream.Seq_trie.of_trace ~max_len training);
        Measure.now () -. t0)
  in
  let count n = float_of_int n in
  [
    Measure.metric "engine.train_s" "s" st.Engine.train_seconds;
    Measure.metric "engine.score_s" "s" st.Engine.score_seconds;
    Measure.metric "engine.train_executed" "count" (count st.Engine.train_executed);
    Measure.metric "engine.tries_built" "count" (count st.Engine.tries_built);
    Measure.metric "engine.trie_nodes" "count" (count st.Engine.trie_nodes);
    Measure.metric ~n:(List.length g.Grid.maps_s) "neural.train_s" "s" (train "nn");
    Measure.metric ~n:(List.length g.Grid.maps_s) "lane_brodley.train_s" "s" (train "lnb");
    Measure.metric "pool.speedup" "ratio" (serial_s /. median g.Grid.maps_s);
    Measure.metric ~n:3 "seq_trie.build_s" "s" (median trie_s);
  ]

(* How much worse each end-to-end metric read traced than untraced, as
   a fraction (negative when the traced phase happened to read better). *)
let overhead ~untraced ~traced =
  List.map2
    (fun (u : Measure.metric) (t : Measure.metric) ->
      let worse =
        if u.Measure.name = "sym_per_s" then u.Measure.value /. t.Measure.value
        else t.Measure.value /. u.Measure.value
      in
      Measure.metric ("overhead." ^ u.Measure.name) "ratio" (worse -. 1.0))
    untraced.metrics traced.metrics

(* The traced run measures every workload, so each socket phase runs for
   half of --seconds, at most 10 s, and each grid phase is one all_maps,
   to keep the whole run well within the time limit. *)
let traced_run args env ~suite =
  let dir = env.Sockets.dir and seconds = Float.min 10.0 (args.seconds /. 2.0) in
  let st = Traffic.stream ~dir ~suite ~seed:args.seed in
  let f =
    Traffic.fleet ~dir ~suite ~seed:args.seed
      ~timed_batches:(Sockets.fleet_batches ~seconds)
  in
  let grid ~tracing =
    Grid.run ~tracing ~reps:1 ~seed:args.seed ~jobs:nproc ()
  in
  (* the named workload untraced, for the overhead rows *)
  let untraced =
    match args.workload with
    | "stream" -> of_phase (Sockets.stream env st ~seconds ~traced:false)
    | "fleet" -> of_phase (Sockets.fleet env f ~traced:false)
    | _ -> of_grid (grid ~tracing:false)
  in
  let sp =
    Sockets.stream ~on_settle:(Ledger.client_span "stream") env st ~seconds ~traced:true
  in
  let fp = Sockets.fleet ~on_settle:(Ledger.client_span "fleet") env f ~traced:true in
  let gp = grid ~tracing:true in
  List.iter
    (fun (name, window, t0, t1) -> ignore (Ledger.span ~batch:window name t0 t1))
    (List.rev gp.Grid.probe.Grid.spans);
  (* [suite] is the grid's first suite too: both come from the seed. *)
  let serial_s, serial_maps, _ = Grid.all_maps (Grid.probe ()) suite ~jobs:1 in
  let jobs_differ = Grid.render serial_maps <> gp.Grid.rendered in
  let phases = [ of_phase sp; of_phase fp; of_grid gp ] in
  let traced =
    match args.workload with
    | "stream" -> List.nth phases 0
    | "fleet" -> List.nth phases 1
    | _ -> List.nth phases 2
  in
  let rows =
    Ledger.stream st @ Ledger.fleet ~dir f @ Ledger.serve_rows sp
    @ Ledger.fleet_serve_rows fp @ grid_rows gp ~suite ~serial_s
    @ overhead ~untraced ~traced
  in
  let spans_dir = Filename.concat ".perfbench" "spans" in
  Measure.mkdir_p spans_dir;
  let spans_file =
    Filename.concat spans_dir (Printf.sprintf "%s-seed%d.tsv" args.workload args.seed)
  in
  Ledger.write_spans spans_file;
  let find name = List.find_opt (fun m -> m.Measure.name = name) rows in
  let missing = List.filter (fun name -> find name = None) ledger_names in
  let renamed prefix (r : result) =
    List.map (fun m -> { m with Measure.name = prefix ^ m.Measure.name }) r.metrics
  in
  let all = untraced :: phases in
  {
    metrics = List.filter_map find ledger_names;
    details =
      List.filter (fun m -> not (List.mem m.Measure.name ledger_names)) rows
      @ renamed "traced." traced @ renamed "untraced." untraced;
    info =
      [
        ("spans", Measure.Str spans_file);
        ("spans_recorded", Measure.Int !Ledger.next_span);
        ( "layers",
          Measure.Obj
            [
              ("L0", Measure.Str "flat_automaton (stream batches, in process)");
              ("L1", Measure.Str "online (stream batches, in process)");
              ("L2", Measure.Str "session_table (stream batches; stats_us on fleet)");
              ("L3", Measure.Str "shard_journal (fleet batches, in process)");
              ("L4", Measure.Str "frame (stream batches, in process)");
              ("L5", Measure.Str "serve over its socket (stream; outside_apply and client on fleet)");
            ] );
      ];
    attempted = List.fold_left (fun a r -> a + r.attempted) 0 all;
    failed =
      List.fold_left (fun a r -> a + r.failed) 0 all
      + List.length missing + if jobs_differ then 1 else 0;
    problems =
      List.concat_map (fun r -> r.problems) all
      @ List.map (fun n -> "ledger metric not measured: " ^ n) missing
      @ if jobs_differ then [ "maps at jobs 1 differ from maps at jobs = cores" ] else [];
  }

let main () =
  let args = parse () in
  if not (Sys.file_exists args.seqdiv) then begin
    Printf.eprintf "perfbench: no seqdiv executable at %S\n" args.seqdiv;
    exit 2
  end;
  let dir = run_dir () in
  let env = { Sockets.seqdiv = args.seqdiv; dir } in
  at_exit (fun () -> Measure.remove_tree dir);
  let suite () = Suite.build (Traffic.suite_params args.seed) in
  if args.trace then print ~args (traced_run args env ~suite:(suite ()))
  else
    match args.workload with
    | "stream" ->
        let st = Traffic.stream ~dir ~suite:(suite ()) ~seed:args.seed in
        print ~args (of_phase (Sockets.stream env st ~seconds:args.seconds ~traced:false))
    | "fleet" ->
        let f =
          Traffic.fleet ~dir ~suite:(suite ()) ~seed:args.seed
            ~timed_batches:(Sockets.fleet_batches ~seconds:args.seconds)
        in
        print ~args (of_phase (Sockets.fleet env f ~traced:false))
    | _ ->
        let reps = Grid.reps_for ~seconds:args.seconds in
        print ~args (of_grid (Grid.run ~reps ~seed:args.seed ~jobs:nproc ()))

(* A run that cannot finish (a server that stops answering, a lost
   connection) prints no result and fails; at_exit stops the servers. *)
let () =
  match main () with
  | () -> ()
  | exception e ->
      prerr_endline ("perfbench: " ^ Printexc.to_string e);
      exit 1
