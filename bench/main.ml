(* The paper's results: regenerates every figure and table of the paper
   (DESIGN.md section 3) plus the ablation and extension tables.

   Usage: dune exec bench/main.exe -- [--full] [--train-len N]
            [--background-len N] [--deploy-len N] [--csv-dir DIR]
            [-j N | --jobs N] [--trace]
          dune exec bench/main.exe -- --grid-only [--chaos | --chaos-rate R]
            [--chaos-fatal R] [--chaos-hang R] [--chaos-seed N]
            [--deadline-ms MS]
          dune exec bench/main.exe -- --adaptive

   By default a reduced scale is used (150k training elements); --full
   switches to the paper's 1M-element training stream.  The map shapes
   are identical at both scales (DESIGN.md section 4).
   --background-len sets the injected test streams' background length
   (default 8000).  --jobs N runs detector training/scoring on N worker
   domains (results are byte-identical for every N); --trace prints the
   engine's per-stage timers to stderr.  --grid-only maps stide, tstide
   and markov over the whole grid, under seeded fault injection and a
   per-cell deadline when asked; --adaptive compares a static threshold
   with the adaptive controllers under drift.  Performance is measured
   by perfbench/ (perfbench/DESIGN.md), not here. *)

open Seqdiv_stream
open Seqdiv_synth
open Seqdiv_core
open Seqdiv_detectors
open Seqdiv_report

type options = {
  train_len : int;
  background_len : int;
  deploy_len : int;
  grid_only : bool;
  adaptive : bool;
  csv_dir : string option;
  jobs : int;
  trace : bool;
  chaos : float; (* transient fault-injection rate; 0 = supervision idle *)
  chaos_fatal : float;
  chaos_hang : float;
  chaos_seed : int;
  deadline_ms : int option;
}

let default_options =
  {
    train_len = 150_000;
    background_len = 8_000;
    deploy_len = 30_000;
    grid_only = false;
    adaptive = false;
    csv_dir = None;
    jobs = 1;
    trace = false;
    chaos = 0.0;
    chaos_fatal = 0.0;
    chaos_hang = 0.0;
    chaos_seed = 7;
    deadline_ms = None;
  }

let parse_options () =
  let rec go acc = function
    | [] -> acc
    | "--full" :: rest -> go { acc with train_len = 1_000_000 } rest
    | "--train-len" :: v :: rest ->
        go { acc with train_len = int_of_string v } rest
    | "--background-len" :: v :: rest ->
        go { acc with background_len = int_of_string v } rest
    | "--deploy-len" :: v :: rest ->
        go { acc with deploy_len = int_of_string v } rest
    | "--grid-only" :: rest -> go { acc with grid_only = true } rest
    | "--adaptive" :: rest -> go { acc with adaptive = true } rest
    | "--csv-dir" :: v :: rest -> go { acc with csv_dir = Some v } rest
    | ("-j" | "--jobs") :: v :: rest ->
        let jobs = int_of_string v in
        let jobs =
          if jobs <= 0 then Seqdiv_util.Pool.recommended_jobs () else jobs
        in
        go { acc with jobs } rest
    | "--trace" :: rest -> go { acc with trace = true } rest
    | "--chaos" :: rest -> go { acc with chaos = 0.05 } rest
    | "--chaos-rate" :: v :: rest ->
        go { acc with chaos = float_of_string v } rest
    | "--chaos-fatal" :: v :: rest ->
        go { acc with chaos_fatal = float_of_string v } rest
    | "--chaos-hang" :: v :: rest ->
        go { acc with chaos_hang = float_of_string v } rest
    | "--chaos-seed" :: v :: rest ->
        go { acc with chaos_seed = int_of_string v } rest
    | "--deadline-ms" :: v :: rest ->
        go { acc with deadline_ms = Some (int_of_string v) } rest
    | arg :: _ ->
        prerr_endline ("unknown argument: " ^ arg);
        exit 2
  in
  let opts = go default_options (List.tl (Array.to_list Sys.argv)) in
  (match opts.deadline_ms with
  | Some ms when ms <= 0 ->
      prerr_endline "--deadline-ms must be positive";
      exit 2
  | _ -> ());
  (* A hang-fated task only terminates when a deadline watchdog is
     armed around it: refuse the combination that would truly hang. *)
  if opts.chaos_hang > 0.0 && opts.deadline_ms = None then begin
    prerr_endline "--chaos-hang requires --deadline-ms";
    exit 2
  end;
  opts

let chaos_plan opts =
  if opts.chaos > 0.0 || opts.chaos_fatal > 0.0 || opts.chaos_hang > 0.0 then
    Some
      (Fault_plan.of_seed ~transient_rate:opts.chaos
         ~fatal_rate:opts.chaos_fatal ~hang_rate:opts.chaos_hang
         ~seed:opts.chaos_seed ())
  else None

let section title = Printf.printf "\n=== %s ===\n%!" title

let measure label value = Printf.printf "%s: %.3f\n%!" label value

let timed label f =
  let t0 = Unix.gettimeofday () in
  let result = f () in
  let dt = Unix.gettimeofday () -. t0 in
  Printf.printf "[%s: %.2fs]\n%!" label dt;
  result

let figure_order maps =
  (* The paper presents L&B (Fig 3), Markov (Fig 4), Stide (Fig 5),
     NN (Fig 6). *)
  let find name =
    List.find (fun m -> Performance_map.detector m = name) maps
  in
  [
    ("Figure 3", find "lnb");
    ("Figure 4", find "markov");
    ("Figure 5", find "stide");
    ("Figure 6", find "nn");
  ]

let write_csvs maps dir =
  List.iter
    (fun m ->
      let path =
        Filename.concat dir
          (Printf.sprintf "map_%s.csv" (Performance_map.detector m))
      in
      Csv.write_file path
        ~header:
          [ "detector"; "anomaly_size"; "window"; "outcome"; "max_response" ]
        (Csv.map_rows m);
      Printf.printf "wrote %s\n" path)
    maps

(* --- full grid only (--grid-only) --------------------------------------- *)

(* The whole (AS x DW) grid for the sequence-database detectors, one
   summary line per map: the run the seeded fault-injection and
   deadline demos drive, where transient faults must not move a single
   cell. *)
let run_grid opts engine =
  let params =
    Suite.scaled_params ~train_len:opts.train_len
      ~background_len:opts.background_len
  in
  section "Full-grid macro benchmark (stide, tstide, markov)";
  let suite = timed "suite build" (fun () -> Suite.build params) in
  let detectors = List.map Registry.find_exn [ "stide"; "tstide"; "markov" ] in
  let maps =
    timed "grid maps" (fun () -> Experiment.all_maps ~engine suite detectors)
  in
  List.iter
    (fun m ->
      let s = Experiment.summary m in
      Printf.printf "%s: capable %d, weak %d, blind %d\n" s.Experiment.detector
        s.Experiment.capable s.Experiment.weak s.Experiment.blind)
    maps

(* --- adaptive vs static thresholding under drift ----------------------- *)

(* The serve layer's headline question, answered offline: calibrate a
   static threshold on a pre-drift calibration corpus at the budgeted
   tail, then let the generating process drift and compare the observed
   false-alarm rate of (a) that frozen threshold against (b) the
   per-session adaptive controllers the serve layer runs.  The static
   rate walks away from the budget with the drift; the adaptive one
   re-tracks it. *)
let run_adaptive opts =
  section "Adaptive vs static thresholding under drift";
  let params =
    Suite.scaled_params ~train_len:opts.train_len
      ~background_len:opts.background_len
  in
  let suite = timed "suite build" (fun () -> Suite.build params) in
  (* Markov, not stide: a graded score distribution (1 - transition
     probability) has real tail quantiles; stide's {0,1} scores don't. *)
  let window = 6 in
  let trained =
    Trained.train (Registry.find_exn "markov") ~window suite.Suite.training
  in
  let scorer =
    match Trained.compile trained with
    | Some s -> s
    | None -> failwith "markov (maximum likelihood) must compile"
  in
  let auto = Flat_automaton.automaton scorer in
  let depth = Flat_automaton.depth auto in
  let iter_scores trace f =
    let data = Trace.raw trace in
    let state = ref Flat_automaton.start in
    Array.iteri
      (fun i s ->
        state := Flat_automaton.step auto !state s;
        if i >= depth - 1 then f (Flat_automaton.state_score scorer !state))
      data
  in
  let sessions = 48 and length = 4_000 in
  let calibration =
    Session_workload.normal suite
      (Seqdiv_util.Prng.create ~seed:(params.Suite.seed + 11))
      ~sessions:16 ~length
  in
  let drifting =
    Session_workload.drifting suite
      (Seqdiv_util.Prng.create ~seed:(params.Suite.seed + 12))
      ~sessions ~length ~segments:4 ~peak_deviation:0.25
  in
  Printf.printf "drifting corpus: %d sessions x %d symbols, window %d\n%!"
    sessions length window;
  List.iter
    (fun budget ->
      (* Static: the (1 - budget) score quantile of the calibration
         corpus, frozen for the whole drifting run. *)
      let sketch = Quantile.create ~epsilon:(budget /. 4.0) in
      List.iter
        (fun trace -> iter_scores trace (Quantile.observe sketch))
        (Sessions.traces calibration);
      let static_threshold = Quantile.quantile sketch (1.0 -. budget) in
      let static_windows = ref 0 and static_alarms = ref 0 in
      timed (Printf.sprintf "static sweep b=%g" budget) (fun () ->
          List.iter
            (fun trace ->
              iter_scores trace (fun score ->
                  incr static_windows;
                  (* Strict [>] matches the adaptive controller's alarm
                     rule, so the two sweeps differ only in whether the
                     threshold moves. *)
                  if score > static_threshold then incr static_alarms))
            (Sessions.traces drifting));
      (* Adaptive: one controller per session, exactly what a serve
         monitor owns under --alarm-budget. *)
      let adaptive_windows = ref 0 and adaptive_alarms = ref 0 in
      timed (Printf.sprintf "adaptive sweep b=%g" budget) (fun () ->
          List.iter
            (fun trace ->
              let controller =
                Adaptive_threshold.create
                  (Adaptive_threshold.config ~budget
                     ~initial:static_threshold ())
              in
              iter_scores trace (fun score ->
                  ignore (Adaptive_threshold.step controller score));
              adaptive_windows :=
                !adaptive_windows + Adaptive_threshold.windows controller;
              adaptive_alarms :=
                !adaptive_alarms + Adaptive_threshold.alarms controller)
            (Sessions.traces drifting));
      let rate alarms windows =
        if windows = 0 then 0.0
        else float_of_int alarms /. float_of_int windows
      in
      let static_rate = rate !static_alarms !static_windows in
      let adaptive_rate = rate !adaptive_alarms !adaptive_windows in
      measure (Printf.sprintf "adaptive_b%g_static_threshold" budget)
        static_threshold;
      measure (Printf.sprintf "adaptive_b%g_static_alarm_rate" budget)
        static_rate;
      measure (Printf.sprintf "adaptive_b%g_adaptive_alarm_rate" budget)
        adaptive_rate;
      measure
        (Printf.sprintf "adaptive_b%g_static_budget_error" budget)
        (Float.abs (static_rate -. budget) /. budget);
      measure
        (Printf.sprintf "adaptive_b%g_adaptive_budget_error" budget)
        (Float.abs (adaptive_rate -. budget) /. budget))
    [ 0.01; 0.05 ]

(* --- the paper reproduction ------------------------------------------- *)

let run_paper opts engine =
  let params =
    Suite.scaled_params ~train_len:opts.train_len
      ~background_len:opts.background_len
  in
  section "Evaluation suite (Section 5)";
  let suite = timed "suite build" (fun () -> Suite.build params) in
  Printf.printf
    "training: %d elements, alphabet %d, cycle fraction %.4f, rare threshold \
     %.3f\n"
    (Trace.length suite.Suite.training)
    params.Suite.alphabet_size
    (Generator.cycle_fraction suite.Suite.training)
    params.Suite.rare_threshold;

  section "Figure 2 — boundary sequences and incident span";
  print_string (Paper.figure2 suite ~window:5 ~anomaly_size:8);

  section "Figure 7 — L&B similarity example";
  print_string (Paper.figure7 ());

  section "Figures 3-6 — performance maps";
  let maps =
    timed "all maps" (fun () -> Experiment.all_maps ~engine suite Registry.all)
  in
  List.iter
    (fun (label, map) -> Printf.printf "%s:\n%s\n" label (Paper.figure_map map))
    (figure_order maps);
  Option.iter (write_csvs maps) opts.csv_dir;

  section "T1 — coverage relations (Sections 7-8)";
  print_string (Paper.table1 maps);

  section "T2 — false alarms and the Stide-suppressor ensemble";
  let t2 =
    timed "T2" (fun () ->
        Deployment.suppressor_experiment ~engine suite ~window:8 ~anomaly_size:5
          ~deploy_len:opts.deploy_len ~seed:(params.Suite.seed + 1))
  in
  print_string (Paper.table2 t2);

  section "T3 — lowering the L&B threshold";
  let deploy =
    Deployment.deployment_stream suite ~len:opts.deploy_len
      ~seed:(params.Suite.seed + 2)
  in
  let fa_training =
    Trace.sub suite.Suite.training ~pos:0
      ~len:(Stdlib.min (Trace.length suite.Suite.training) 20_000)
  in
  let t3 =
    timed "T3" (fun () ->
        Deployment.lnb_threshold_experiment ~engine suite ~anomaly_size:5
          ~deploy_trace:deploy ~fa_training)
  in
  print_string (Paper.table3 t3);
  Option.iter
    (fun dir ->
      let path = Filename.concat dir "t3_lnb_threshold.csv" in
      Csv.write_file path
        ~header:[ "window"; "score_threshold"; "hit"; "fa_rate" ]
        (List.map
           (fun (p : Deployment.lnb_threshold_point) ->
             [
               string_of_int p.Deployment.window;
               Printf.sprintf "%.6f" p.Deployment.score_threshold;
               (if p.Deployment.hit then "1" else "0");
               Printf.sprintf "%.6f" p.Deployment.false_alarm_rate;
             ])
           t3);
      Printf.printf "wrote %s\n" path)
    opts.csv_dir;
  print_string
    (Ascii_plot.render ~width:56 ~height:10 ~x_label:"detector window DW"
       ~y_label:"L&B false-alarm rate at the lowered threshold"
       (List.map
          (fun (p : Deployment.lnb_threshold_point) ->
            (float_of_int p.Deployment.window, p.Deployment.false_alarm_rate))
          t3));

  section "A1 — Stide locality frame count";
  let a1 =
    let test = Suite.stream suite ~anomaly_size:4 ~window:6 in
    timed "A1" (fun () ->
        Ablation.lfc_experiment ~engine ~training:fa_training
          ~injection:test.Suite.injection ~deploy ~window:6
          ~settings:[ (20, 1); (20, 2); (20, 4); (50, 8) ] ())
  in
  print_string (Paper.ablation1 a1);

  section "A2 — neural-network hyper-parameter sensitivity";
  let a2 =
    let base = Neural.default_params in
    timed "A2" (fun () ->
        Ablation.nn_sensitivity ~engine suite ~window:6
          ~params:
            [
              base;
              { base with Neural.hidden = 1 };
              { base with Neural.epochs = 10 };
              { base with Neural.learning_rate = 0.005; epochs = 50 };
              { base with Neural.momentum = 0.0; learning_rate = 0.05 };
            ])
  in
  print_string (Paper.ablation2 a2);

  section "A3 — alphabet-size invariance";
  let a3 =
    let base =
      Suite.scaled_params
        ~train_len:(Stdlib.min opts.train_len 80_000)
        ~background_len:4_000
    in
    timed "A3" (fun () ->
        Ablation.alphabet_invariance ~engine ~base ~sizes:[ 6; 8; 12 ] ())
  in
  print_string (Paper.ablation3 a3);

  section "A4 — rare-threshold sensitivity";
  let a4 =
    timed "A4" (fun () ->
        Ablation.rare_threshold_sweep suite
          ~thresholds:[ 0.00005; 0.0001; 0.0005; 0.005; 0.05; 0.2 ])
  in
  print_string (Paper.ablation4 a4);

  section "A6 — window selection trade-off";
  let a6 =
    timed "A6" (fun () ->
        Ablation.window_tradeoff ~engine suite ~fa_training ~deploy)
  in
  print_string (Paper.ablation6 a6);
  Option.iter
    (fun dir ->
      let path = Filename.concat dir "a6_window_tradeoff.csv" in
      Csv.write_file path
        ~header:[ "window"; "coverage"; "fa_rate" ]
        (List.map
           (fun (p : Ablation.window_point) ->
             [
               string_of_int p.Ablation.window;
               Printf.sprintf "%.6f" p.Ablation.coverage;
               Printf.sprintf "%.6f" p.Ablation.false_alarm_rate;
             ])
           a6);
      Printf.printf "wrote %s\n" path)
    opts.csv_dir;
  print_string
    (Ascii_plot.render_series ~width:56 ~height:10 ~x_label:"detector window DW"
       ~y_label:"fraction"
       [
         ( "coverage",
           List.map
             (fun (p : Ablation.window_point) ->
               (float_of_int p.Ablation.window, p.Ablation.coverage))
             a6 );
         ( "FA rate x100",
           List.map
             (fun (p : Ablation.window_point) ->
               (float_of_int p.Ablation.window, p.Ablation.false_alarm_rate *. 100.0))
             a6 );
       ]);

  section "A7 — synthesis operating envelope";
  let a7 =
    let base =
      Suite.scaled_params
        ~train_len:(Stdlib.min opts.train_len 60_000)
        ~background_len:3_000
    in
    timed "A7" (fun () ->
        Ablation.deviation_sweep ~engine ~base
          ~deviations:[ 0.00002; 0.0005; 0.0025; 0.01; 0.05; 0.2 ] ())
  in
  print_string (Paper.ablation7 a7);

  section "A8 — Markov smoothing";
  let a8 =
    timed "A8" (fun () ->
        Ablation.smoothing_sweep suite ~window:6
          ~alphas:[ 0.0; 0.1; 10.0; 1000.0; 100000.0 ])
  in
  print_string (Paper.ablation8 a8);

  section "E1 — extension detectors (t-stide, HMM)";
  let extension_maps =
    timed "E1" (fun () ->
        Experiment.all_maps ~engine suite
          [ Registry.find_exn "tstide"; Registry.find_exn "hmm" ])
  in
  print_string (Paper.extension1 ~paper_maps:maps ~extension_maps);

  section "E2 — rare-sequence anomalies";
  let e2 =
    timed "E2" (fun () ->
        let rare = Rare_anomaly.build suite in
        List.map
          (fun d -> Rare_anomaly.performance_map ~engine rare suite d)
          Registry.extended)
  in
  print_string (Paper.extension2 e2);

  section "E3 — seed robustness";
  let e3 =
    let base =
      Suite.scaled_params
        ~train_len:(Stdlib.min opts.train_len 60_000)
        ~background_len:3_000
    in
    timed "E3" (fun () ->
        Ablation.seed_robustness ~engine ~base ~seeds:[ 1; 7; 42; 2005 ] ())
  in
  print_string (Paper.extension3 e3);

  section "E4 — per-session classification";
  let e4 =
    timed "E4" (fun () ->
        let rng = Seqdiv_util.Prng.create ~seed:(params.Suite.seed + 9) in
        let normal =
          Session_workload.normal suite rng ~sessions:60 ~length:400
        in
        let anomalous =
          Session_workload.anomalous suite ~sessions:30 ~length:400
            ~anomaly_size:5 ~window:8
        in
        List.map
          (fun d ->
            let trained = Engine.train engine d ~window:8 suite.Suite.training in
            let (module D : Detector.S) = d in
            (D.name, Session_eval.evaluate trained ~normal ~anomalous ()))
          Registry.extended)
  in
  print_string (Paper.extension4 e4)

let () =
  let opts = parse_options () in
  let fault_plan = chaos_plan opts in
  Option.iter
    (fun plan -> Printf.printf "%s\n%!" (Fault_plan.describe plan))
    fault_plan;
  let deadline =
    Option.map
      (fun budget_ms ->
        Seqdiv_util.Deadline.spec ~clock:Unix.gettimeofday ~budget_ms)
      opts.deadline_ms
  in
  let engine =
    Engine.create ~clock:Unix.gettimeofday ~jobs:opts.jobs ?fault_plan
      ?deadline ()
  in
  if opts.adaptive then run_adaptive opts
  else begin
    if opts.grid_only then run_grid opts engine else run_paper opts engine;
    if opts.trace then
      Format.eprintf "%a@." Engine.pp_stats (Engine.stats engine)
  end;
  print_newline ()
