(* seqdiv — command-line driver for the diversity study.

   Reproduction subcommands: synth, mfs, map, full, roc, ensemble,
   lnb-threshold, ablation, extensions (every experiment of DESIGN.md
   section 3 is printed from here, each section by one function;
   `seqdiv full` prints the paper's figures and tables).  Tool
   subcommands for user data: detect, compare, classify, dataset. *)

open Cmdliner
open Seqdiv_stream
open Seqdiv_synth
open Seqdiv_core
open Seqdiv_detectors
open Seqdiv_report

(* --- shared options ---------------------------------------------------- *)

(* Every command's exit statuses: cmdliner's, and 1 for a malformed
   input file (see [main]). *)
let exits =
  Cmd.Exit.info 1
    ~doc:
      "on a malformed or unreadable input file (a trace, dataset or \
       model); the parser's message is printed on stderr."
  :: Cmd.Exit.defaults

let train_len_t =
  let doc = "Training-stream length (the paper uses 1000000)." in
  Arg.(value & opt int 150_000 & info [ "train-len" ] ~docv:"N" ~doc)

let background_len_t =
  let doc = "Background length of each injected test stream." in
  Arg.(value & opt int 8_000 & info [ "background-len" ] ~docv:"N" ~doc)

let seed_t =
  let doc = "PRNG seed; the whole experiment is deterministic in it." in
  Arg.(value & opt int 2005 & info [ "seed" ] ~docv:"SEED" ~doc)

let deviation_t =
  let doc = "Per-step probability of deviating from the cycle." in
  Arg.(
    value
    & opt float Generator.default_deviation
    & info [ "deviation" ] ~docv:"P" ~doc)

let rare_t =
  let doc = "Rare-sequence relative-frequency threshold (paper: 0.005)." in
  Arg.(value & opt float 0.005 & info [ "rare-threshold" ] ~docv:"F" ~doc)

let verbose_t =
  let doc = "Log suite construction and injection details to stderr." in
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc)

let jobs_t =
  let doc =
    "Worker domains for detector training and scoring (0 = one per core). \
     Results are byte-identical for every value: only pure train/score \
     tasks run in parallel."
  in
  Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let trace_t =
  let doc = "Print engine stage timings and task counts to stderr." in
  Arg.(value & flag & info [ "trace" ] ~doc)

let deadline_t =
  let doc =
    "Per-task deadline in milliseconds: a train/score task that runs past \
     the budget degrades its cell(s) to a $(b,timeout) failure (rendered \
     $(b,!) in maps, $(b,failed:timeout) in CSV) instead of stalling the \
     run.  Deadlines are cooperative — checked at detector loop \
     checkpoints — and never retried."
  in
  Arg.(value & opt (some int) None & info [ "deadline-ms" ] ~docv:"MS" ~doc)

let engine_t =
  let chaos_t =
    let doc =
      "Seeded fault injection into the train/score tasks, decided \
       statelessly from $(docv) so that a run replays exactly.  Transient \
       faults are retried and move no cell; the plan is described on \
       stderr."
    in
    Arg.(value & opt (some int) None & info [ "chaos" ] ~docv:"SEED" ~doc)
  in
  let rate_t name default doc =
    Arg.(value & opt float default & info [ name ] ~docv:"RATE" ~doc)
  in
  let chaos_rate_t =
    rate_t "chaos-rate" 0.05
      "With $(b,--chaos): fraction of tasks that fail transiently (retried)."
  in
  let chaos_fatal_t =
    rate_t "chaos-fatal" 0.0
      "With $(b,--chaos): fraction of tasks that fail fatally (their cells \
       render as failed)."
  in
  let chaos_hang_t =
    rate_t "chaos-hang" 0.0
      "With $(b,--chaos): fraction of tasks that hang until the \
       $(b,--deadline-ms) watchdog fires; refused without $(b,--deadline-ms)."
  in
  let make jobs trace deadline_ms chaos transient_rate fatal_rate hang_rate =
    let jobs =
      if jobs <= 0 then Seqdiv_util.Pool.recommended_jobs () else jobs
    in
    let deadline =
      Option.map
        (fun budget_ms ->
          if budget_ms <= 0 then begin
            prerr_endline "seqdiv: --deadline-ms must be positive";
            exit 2
          end;
          Seqdiv_util.Deadline.spec ~clock:Unix.gettimeofday ~budget_ms)
        deadline_ms
    in
    let fault_plan =
      Option.map
        (fun seed ->
          (* A hang-fated task only ends when a deadline watchdog is
             armed around it: refuse the run that would truly hang. *)
          if hang_rate > 0.0 && deadline = None then begin
            prerr_endline "seqdiv: --chaos-hang requires --deadline-ms";
            exit 2
          end;
          match
            Fault_plan.of_seed ~transient_rate ~fatal_rate ~hang_rate ~seed ()
          with
          | plan ->
              prerr_endline (Fault_plan.describe plan);
              plan
          | exception Invalid_argument msg ->
              Printf.eprintf "seqdiv: %s\n" msg;
              exit 2)
        chaos
    in
    ( Engine.create ~clock:Unix.gettimeofday ~jobs ?fault_plan ?deadline (),
      trace )
  in
  Term.(
    const make $ jobs_t $ trace_t $ deadline_t $ chaos_t $ chaos_rate_t
    $ chaos_fatal_t $ chaos_hang_t)

(* Run one command body against the shared engine.  --trace prints the
   engine's stats at any exit: a run with failed cells exits 2 from
   inside the body, and its stats are the ones worth reading.  A fault
   that escapes a stage without per-cell isolation (the deployment
   tables, ablations) is a partial failure of the run, not an internal
   error: report it and use the partial-failure exit code.  The
   sections printed before the stage are intact. *)
let with_engine (engine, trace) f =
  if trace then
    at_exit (fun () ->
        Format.eprintf "%a@." Engine.pp_stats (Engine.stats engine));
  match f engine with
  | result -> result
  | exception Fault.Error fault ->
      Printf.eprintf "seqdiv: stage failed: %s\n%!" (Fault.to_string fault);
      exit 2

(* --- supervision options (map / full) ----------------------------------- *)

let journal_t =
  let doc =
    "Record every completed cell in a crash-safe journal at $(docv) \
     (write-tmp-then-rename batches).  Interrupted runs restart with \
     $(b,--resume) to re-execute only the missing cells."
  in
  Arg.(value & opt (some string) None & info [ "journal" ] ~docv:"FILE" ~doc)

let resume_t =
  let doc =
    "Resume from the journal named by $(b,--journal): cells it already \
     holds are answered without re-execution, byte-identically to a fresh \
     run at any $(b,--jobs) count."
  in
  Arg.(value & flag & info [ "resume" ] ~doc)

let strict_t =
  let doc =
    "Exit 1 instead of 2 when any cell fails — for CI gates that must \
     treat a partial map as a hard error."
  in
  Arg.(value & flag & info [ "strict" ] ~doc)

(* The journal context pins every parameter that shapes cell outcomes;
   resuming under a different configuration is refused, not silently
   spliced. *)
let journal_context (p : Suite.params) =
  Printf.sprintf
    "seed=%d alphabet=%d train_len=%d background_len=%d as=%d..%d dw=%d..%d \
     deviation=%g rare=%g"
    p.Suite.seed p.Suite.alphabet_size p.Suite.train_len p.Suite.background_len
    p.Suite.as_min p.Suite.as_max p.Suite.dw_min p.Suite.dw_max
    p.Suite.deviation p.Suite.rare_threshold

let open_journal params journal resume =
  match (journal, resume) with
  | None, true ->
      prerr_endline "seqdiv: --resume requires --journal FILE";
      exit 2
  | None, false -> None
  | Some path, resume -> (
      match Journal.start ~resume ~context:(journal_context params) path with
      | j ->
          if resume then
            Printf.eprintf "journal: recovered %d cell(s) from %s%s\n%!"
              (Journal.recovered j) path
              (match Journal.dropped_lines j with
              | 0 -> ""
              | n -> Printf.sprintf " (%d torn line(s) dropped)" n);
          Some j
      | exception Journal.Corrupt msg ->
          prerr_endline ("seqdiv: " ^ msg);
          exit 2)

(* Honest exit status: a run with failed cells is a partial result and
   must not exit 0.  One summary line on stderr; 2 by default, 1 under
   --strict. *)
let partial_failure ~strict what =
  Printf.eprintf "seqdiv: partial failure: %s\n%!" what;
  exit (if strict then 1 else 2)

let check_failures ~strict maps =
  let failed =
    List.fold_left
      (fun acc m -> acc + List.length (Performance_map.failed_cells m))
      0 maps
  in
  if failed > 0 then
    let total =
      List.fold_left (fun acc m -> acc + Performance_map.cell_count m) 0 maps
    in
    partial_failure ~strict
      (Printf.sprintf
         "%d of %d cell(s) failed after retries (rerun with --journal FILE \
          --resume to retry only those)"
         failed total)

let setup_logging verbose =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some (if verbose then Logs.Debug else Logs.Warning))

let params_t =
  let make verbose train_len background_len seed deviation rare_threshold =
    setup_logging verbose;
    {
      Suite.paper_params with
      Suite.train_len;
      background_len;
      seed;
      deviation;
      rare_threshold;
    }
  in
  Term.(
    const make $ verbose_t $ train_len_t $ background_len_t $ seed_t
    $ deviation_t $ rare_t)

let detector_conv =
  let parse s =
    match Registry.find s with
    | Some d -> Ok d
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown detector %S (one of: %s)" s
               (String.concat ", " Registry.names)))
  in
  let print ppf (module D : Detector.S) = Format.pp_print_string ppf D.name in
  Arg.conv (parse, print)

(* --- the paper's sections ----------------------------------------------- *)

(* What the paper's sections read.  [maps] are the paper's four
   performance maps (Figures 3-6), computed on first use: T1 and E1 both
   need them.  [deploy] and [fa_training] are the deployment stream and
   the undertrained false-alarm training prefix that T3, A1 and A6
   share. *)
type ctx = {
  engine : Engine.t;
  suite : Suite.t;
  maps : Performance_map.t list Lazy.t;
  deploy : Trace.t;
  fa_training : Trace.t;
}

let context ?journal ?(deploy_len = 30_000) ?(fa_train_len = 20_000) engine
    params =
  let suite = Suite.build params in
  {
    engine;
    suite;
    maps = lazy (Experiment.all_maps ~engine ?journal suite Registry.all);
    deploy =
      Deployment.deployment_stream suite ~len:deploy_len
        ~seed:(params.Suite.seed + 2);
    fa_training =
      Trace.sub suite.Suite.training ~pos:0
        ~len:(Stdlib.min (Trace.length suite.Suite.training) fa_train_len);
  }

(* The suite's seed plus [k]: each section draws its own streams. *)
let seed c k = c.suite.Suite.params.Suite.seed + k

(* A reduced suite for the sweeps that build one suite per point. *)
let sweep_base c ~train_len ~background_len =
  Suite.scaled_params
    ~train_len:(Stdlib.min c.suite.Suite.params.Suite.train_len train_len)
    ~background_len

let lnb_threshold c ~anomaly_size =
  Deployment.lnb_threshold_experiment ~engine:c.engine c.suite ~anomaly_size
    ~deploy_trace:c.deploy ~fa_training:c.fa_training

(* The static-vs-adaptive comparison under drift, offline: calibrate a
   static threshold on a pre-drift corpus at the budgeted tail, let the
   generating process drift, and compare the observed false-alarm rate
   of (a) that frozen threshold with (b) the per-session adaptive
   controllers serve runs under --alarm-budget.  The static rate walks
   away from the budget with the drift; the adaptive one re-tracks it. *)
let adaptive_comparison c =
  (* Markov, not stide: a graded score distribution (1 - transition
     probability) has real tail quantiles; stide's {0,1} scores don't. *)
  let window = 6 in
  let trained =
    Trained.train (Registry.find_exn "markov") ~window c.suite.Suite.training
  in
  let scorer =
    match Trained.compile trained with
    | Some s -> s
    | None -> failwith "markov (maximum likelihood) must compile"
  in
  let auto = Flat_automaton.automaton scorer in
  let depth = Flat_automaton.depth auto in
  let iter_scores trace f =
    let state = ref Flat_automaton.start in
    Array.iteri
      (fun i s ->
        state := Flat_automaton.step auto !state s;
        if i >= depth - 1 then f (Flat_automaton.state_score scorer !state))
      (Trace.raw trace)
  in
  let sessions = 48 and length = 4_000 in
  let calibration =
    Session_workload.normal c.suite
      (Seqdiv_util.Prng.create ~seed:(seed c 11))
      ~sessions:16 ~length
  in
  let drifting =
    Sessions.traces
      (Session_workload.drifting c.suite
         (Seqdiv_util.Prng.create ~seed:(seed c 12))
         ~sessions ~length ~segments:4 ~peak_deviation:0.25)
  in
  let buf = Buffer.create 1024 in
  Printf.bprintf buf "drifting corpus: %d sessions x %d symbols, window %d\n"
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
      List.iter
        (fun trace ->
          iter_scores trace (fun score ->
              incr static_windows;
              (* Strict [>] is the adaptive controller's alarm rule, so
                 the two sweeps differ only in whether the threshold
                 moves. *)
              if score > static_threshold then incr static_alarms))
        drifting;
      (* Adaptive: one controller per session, as a serve monitor owns. *)
      let adaptive_windows = ref 0 and adaptive_alarms = ref 0 in
      List.iter
        (fun trace ->
          let controller =
            Adaptive_threshold.create
              (Adaptive_threshold.config ~budget ~initial:static_threshold ())
          in
          iter_scores trace (fun score ->
              ignore (Adaptive_threshold.step controller score));
          adaptive_windows :=
            !adaptive_windows + Adaptive_threshold.windows controller;
          adaptive_alarms :=
            !adaptive_alarms + Adaptive_threshold.alarms controller)
        drifting;
      let rate alarms windows =
        if windows = 0 then 0.0
        else float_of_int alarms /. float_of_int windows
      in
      let static_rate = rate !static_alarms !static_windows in
      let adaptive_rate = rate !adaptive_alarms !adaptive_windows in
      let line name value =
        Printf.bprintf buf "adaptive_b%g_%s: %.3f\n" budget name value
      in
      line "static_threshold" static_threshold;
      line "static_alarm_rate" static_rate;
      line "adaptive_alarm_rate" adaptive_rate;
      line "static_budget_error" (Float.abs (static_rate -. budget) /. budget);
      line "adaptive_budget_error"
        (Float.abs (adaptive_rate -. budget) /. budget))
    [ 0.01; 0.05 ];
  Buffer.contents buf

(* Each command's sections, as (id, render) pairs in print order. *)

let paper_sections =
  [
    ("figure2", fun c -> Paper.figure2 c.suite ~window:5 ~anomaly_size:8);
    ("figure7", fun _ -> Paper.figure7 ());
    ( "maps",
      fun c ->
        String.concat "\n" (List.map Paper.figure_map (Lazy.force c.maps)) );
    ("t1", fun c -> Paper.table1 (Lazy.force c.maps));
    ( "t2",
      fun c ->
        Paper.table2
          (Deployment.suppressor_experiment ~engine:c.engine c.suite ~window:8
             ~anomaly_size:5 ~deploy_len:30_000 ~seed:(seed c 1)) );
    ("t3", fun c -> Paper.table3 (lnb_threshold c ~anomaly_size:5));
  ]

let ablation_sections =
  [
    ( "a1",
      fun c ->
        let test = Suite.stream c.suite ~anomaly_size:4 ~window:6 in
        Paper.ablation1
          (Ablation.lfc_experiment ~engine:c.engine ~training:c.fa_training
             ~injection:test.Suite.injection ~deploy:c.deploy ~window:6
             ~settings:[ (20, 1); (20, 2); (20, 4); (50, 8) ] ()) );
    ( "a2",
      fun c ->
        let base = Neural.default_params in
        Paper.ablation2
          (Ablation.nn_sensitivity ~engine:c.engine c.suite ~window:6
             ~params:
               [
                 base;
                 { base with Neural.hidden = 1 };
                 { base with Neural.epochs = 10 };
                 { base with Neural.learning_rate = 0.005; epochs = 50 };
                 { base with Neural.momentum = 0.0; learning_rate = 0.05 };
               ]) );
    ( "a3",
      fun c ->
        Paper.ablation3
          (Ablation.alphabet_invariance ~engine:c.engine
             ~base:(sweep_base c ~train_len:80_000 ~background_len:4_000)
             ~sizes:[ 6; 8; 12 ] ()) );
    ( "a4",
      fun c ->
        Paper.ablation4
          (Ablation.rare_threshold_sweep c.suite
             ~thresholds:[ 0.00005; 0.0001; 0.0005; 0.005; 0.05; 0.2 ]) );
    ( "a6",
      fun c ->
        let points =
          Ablation.window_tradeoff ~engine:c.engine c.suite
            ~fa_training:c.fa_training ~deploy:c.deploy
        in
        let series name value =
          ( name,
            List.map
              (fun (p : Ablation.window_point) ->
                (float_of_int p.Ablation.window, value p))
              points )
        in
        Paper.ablation6 points
        ^ Ascii_plot.render_series ~width:56 ~height:10
            ~x_label:"detector window DW" ~y_label:"fraction"
            [
              series "coverage" (fun p -> p.Ablation.coverage);
              series "FA rate x100" (fun p ->
                  p.Ablation.false_alarm_rate *. 100.0);
            ] );
    ( "a7",
      fun c ->
        Paper.ablation7
          (Ablation.deviation_sweep ~engine:c.engine
             ~base:(sweep_base c ~train_len:60_000 ~background_len:3_000)
             ~deviations:[ 0.00002; 0.0005; 0.0025; 0.01; 0.05; 0.2 ] ()) );
    ( "a8",
      fun c ->
        Paper.ablation8
          (Ablation.smoothing_sweep c.suite ~window:6
             ~alphas:[ 0.0; 0.1; 10.0; 1000.0; 100000.0 ]) );
  ]

let extension_sections =
  [
    ( "e1",
      fun c ->
        let paper_maps = Lazy.force c.maps in
        let extension_maps =
          Experiment.all_maps ~engine:c.engine c.suite
            [ Registry.find_exn "tstide"; Registry.find_exn "hmm" ]
        in
        Paper.extension1 ~paper_maps ~extension_maps );
    ( "e2",
      fun c ->
        let rare = Rare_anomaly.build c.suite in
        Paper.extension2
          (List.map
             (fun d ->
               Rare_anomaly.performance_map ~engine:c.engine rare c.suite d)
             Registry.extended) );
    ( "e3",
      fun c ->
        Paper.extension3
          (Ablation.seed_robustness ~engine:c.engine
             ~base:(sweep_base c ~train_len:60_000 ~background_len:3_000)
             ~seeds:[ 1; 7; 42; 2005 ] ()) );
    ( "e4",
      fun c ->
        let rng = Seqdiv_util.Prng.create ~seed:(seed c 9) in
        let normal =
          Session_workload.normal c.suite rng ~sessions:60 ~length:400
        in
        let anomalous =
          Session_workload.anomalous c.suite ~sessions:30 ~length:400
            ~anomaly_size:5 ~window:8
        in
        Paper.extension4
          (List.map
             (fun d ->
               let trained =
                 Engine.train c.engine d ~window:8 c.suite.Suite.training
               in
               let (module D : Detector.S) = d in
               (D.name, Session_eval.evaluate trained ~normal ~anomalous ()))
             Registry.extended) );
    ("adaptive", adaptive_comparison);
  ]

(* Print sections one blank line apart, each as soon as it is computed:
   a stage that escapes supervision then exits 2 (see [with_engine])
   with every earlier section on stdout. *)
let print_sections c sections =
  List.iteri
    (fun i (_, render) ->
      let body = render c in
      if i > 0 then print_newline ();
      print_string body;
      flush stdout)
    sections

(* [--which ID]: one section of [sections], or all of them. *)
let which_t ~what sections =
  let ids = List.map fst sections @ [ "all" ] in
  let select id =
    if id = "all" then sections else List.filter (fun (s, _) -> s = id) sections
  in
  Term.(
    const select
    $ Arg.(
        value
        & opt (enum (List.map (fun id -> (id, id)) ids)) "all"
        & info [ "which" ] ~docv:"ID"
            ~doc:(Printf.sprintf "Which %s: %s." what (Arg.doc_alts ids))))

(* --- synth ------------------------------------------------------------- *)

let synth_cmd =
  let run params out =
    let suite = Suite.build params in
    Trace_io.to_file out suite.Suite.training;
    Printf.printf "wrote %d training elements to %s\n"
      (Trace.length suite.Suite.training)
      out;
    Printf.printf
      "training: %d elements, alphabet %d, cycle fraction %.4f, rare \
       threshold %.3f\n"
      (Trace.length suite.Suite.training)
      params.Suite.alphabet_size
      (Generator.cycle_fraction suite.Suite.training)
      params.Suite.rare_threshold
  in
  let out_t =
    Arg.(value & opt string "training.trace" & info [ "o"; "output" ] ~doc:"Output file.")
  in
  Cmd.v
    (Cmd.info "synth" ~exits
       ~doc:"Generate the synthetic training stream to a file.")
    Term.(const run $ params_t $ out_t)

(* --- mfs --------------------------------------------------------------- *)

let mfs_cmd =
  let run params size count =
    let suite = Suite.build params in
    let candidates =
      Mfs.candidates suite.Suite.index suite.Suite.alphabet ~size
        ~rare_threshold:params.Suite.rare_threshold
    in
    Printf.printf
      "%d minimal foreign sequence(s) of size %d (showing up to %d):\n"
      (List.length candidates) size count;
    List.iteri
      (fun i c ->
        if i < count then
          Printf.printf "  [%s]  rare 2-grams: %d\n"
            (String.concat "; "
               (List.map string_of_int (Array.to_list c)))
            (Mfs.rare_twogram_count suite.Suite.index
               ~threshold:params.Suite.rare_threshold c))
      candidates
  in
  let size_t =
    Arg.(value & opt int 5 & info [ "size" ] ~docv:"AS" ~doc:"Anomaly size.")
  in
  let count_t =
    Arg.(value & opt int 10 & info [ "count" ] ~docv:"N" ~doc:"Candidates to show.")
  in
  Cmd.v
    (Cmd.info "mfs" ~exits
       ~doc:"List minimal foreign sequences constructible from the training data.")
    Term.(const run $ params_t $ size_t $ count_t)

(* --- map --------------------------------------------------------------- *)

let map_cmd =
  let run params eng detectors csv_dir journal resume strict =
    with_engine eng @@ fun engine ->
    let suite = Suite.build params in
    let detectors = if detectors = [] then Registry.all else detectors in
    let journal = open_journal params journal resume in
    let maps =
      List.map
        (fun d ->
          let map = Experiment.performance_map ~engine ?journal suite d in
          Ascii_map.print map;
          print_newline ();
          Option.iter
            (fun dir ->
              let path =
                Filename.concat dir
                  (Printf.sprintf "map_%s.csv" (Performance_map.detector map))
              in
              Csv.write_file path
                ~header:
                  [ "detector"; "anomaly_size"; "window"; "outcome"; "max_response" ]
                (Csv.map_rows map);
              Printf.printf "wrote %s\n" path)
            csv_dir;
          map)
        detectors
    in
    check_failures ~strict maps
  in
  let detectors_t =
    Arg.(
      value
      & opt_all detector_conv []
      & info [ "d"; "detector" ] ~docv:"NAME"
          ~doc:"Detector to map (repeatable); default: all four.")
  in
  let csv_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv-dir" ] ~docv:"DIR" ~doc:"Also write per-map CSV files.")
  in
  let man =
    [
      `S Manpage.s_exit_status;
      `P
        "0 on a complete run; 2 (1 under $(b,--strict)) when any cell \
         failed past the supervisor's retry budget — the maps are then \
         partial and failed cells render as '!'.";
    ]
  in
  Cmd.v
    (Cmd.info "map" ~exits ~man
       ~doc:"Reproduce the performance maps of Figures 3-6 for chosen detectors.")
    Term.(
      const run $ params_t $ engine_t $ detectors_t $ csv_t $ journal_t
      $ resume_t $ strict_t)

(* --- full -------------------------------------------------------------- *)

let full_cmd =
  let run params eng journal resume strict =
    with_engine eng @@ fun engine ->
    let journal = open_journal params journal resume in
    let c = context ?journal engine params in
    print_sections c paper_sections;
    check_failures ~strict (Lazy.force c.maps)
  in
  let man =
    [
      `S Manpage.s_exit_status;
      `P
        "0 on a complete run; 2 (1 under $(b,--strict)) when any \
         performance-map cell failed past the supervisor's retry budget.";
    ]
  in
  Cmd.v
    (Cmd.info "full" ~exits ~man
       ~doc:"Run the complete paper reproduction (figures and tables).")
    Term.(const run $ params_t $ engine_t $ journal_t $ resume_t $ strict_t)

(* --- roc --------------------------------------------------------------- *)

let roc_cmd =
  let run params (module D : Detector.S) window anomaly_size deploy_len =
    let suite = Suite.build params in
    let trained = Trained.train (module D) ~window suite.Suite.training in
    let deploy =
      Deployment.deployment_stream suite ~len:deploy_len
        ~seed:(params.Suite.seed + 3)
    in
    let clean = Trained.score trained deploy in
    let spans =
      List.map
        (fun anomaly_size ->
          let test = Suite.stream suite ~anomaly_size ~window in
          Scoring.incident_response trained test.Suite.injection)
        (if anomaly_size = 0 then Suite.anomaly_sizes suite else [ anomaly_size ])
    in
    let points =
      Roc.sweep ~clean ~spans
        ~thresholds:[ 0.1; 0.25; 0.5; 0.75; 0.9; 0.99; 0.995; 1.0 ]
    in
    let table = Table.make ~columns:[ "threshold"; "hit rate"; "FA rate" ] in
    List.iter
      (fun p ->
        Table.add_row table
          [
            Printf.sprintf "%.3f" p.Roc.threshold;
            Printf.sprintf "%.3f" p.Roc.hit_rate;
            Printf.sprintf "%.5f" p.Roc.fa_rate;
          ])
      points;
    Table.print table;
    Printf.printf "AUC (anchored): %.4f\n" (Roc.auc points)
  in
  let detector_t =
    Arg.(
      required
      & opt (some detector_conv) None
      & info [ "d"; "detector" ] ~docv:"NAME" ~doc:"Detector.")
  in
  let window_t =
    Arg.(value & opt int 8 & info [ "window" ] ~docv:"DW" ~doc:"Detector window.")
  in
  let as_t =
    Arg.(
      value & opt int 0
      & info [ "anomaly-size" ] ~docv:"AS"
          ~doc:"Anomaly size (0 = all sizes of the suite).")
  in
  let deploy_t =
    Arg.(value & opt int 30_000 & info [ "deploy-len" ] ~docv:"N" ~doc:"Deployment length.")
  in
  Cmd.v
    (Cmd.info "roc" ~exits
       ~doc:"Threshold sweep: hit rate vs false-alarm rate.")
    Term.(const run $ params_t $ detector_t $ window_t $ as_t $ deploy_t)

(* --- ensemble ---------------------------------------------------------- *)

let ensemble_cmd =
  let run params eng window anomaly_size deploy_len =
    with_engine eng @@ fun engine ->
    let suite = Suite.build params in
    let report =
      Deployment.suppressor_experiment ~engine suite ~window ~anomaly_size
        ~deploy_len ~seed:(params.Suite.seed + 1)
    in
    print_string (Paper.table2 report)
  in
  let window_t =
    Arg.(value & opt int 8 & info [ "window" ] ~docv:"DW" ~doc:"Detector window.")
  in
  let as_t =
    Arg.(value & opt int 5 & info [ "anomaly-size" ] ~docv:"AS" ~doc:"Anomaly size.")
  in
  let deploy_t =
    Arg.(value & opt int 30_000 & info [ "deploy-len" ] ~docv:"N" ~doc:"Deployment length.")
  in
  Cmd.v
    (Cmd.info "ensemble" ~exits
       ~doc:"Markov+Stide false-alarm suppression experiment (T2).")
    Term.(const run $ params_t $ engine_t $ window_t $ as_t $ deploy_t)

(* --- lnb-threshold ----------------------------------------------------- *)

let lnb_cmd =
  let run params eng anomaly_size deploy_len fa_train_len =
    with_engine eng @@ fun engine ->
    let c = context ~deploy_len ~fa_train_len engine params in
    let points = lnb_threshold c ~anomaly_size in
    print_string (Paper.table3 points);
    print_string
      (Ascii_plot.render ~width:56 ~height:10 ~x_label:"detector window DW"
         ~y_label:"L&B false-alarm rate at the lowered threshold"
         (List.map
            (fun (p : Deployment.lnb_threshold_point) ->
              (float_of_int p.Deployment.window, p.Deployment.false_alarm_rate))
            points))
  in
  let as_t =
    Arg.(value & opt int 5 & info [ "anomaly-size" ] ~docv:"AS" ~doc:"Anomaly size.")
  in
  let deploy_t =
    Arg.(value & opt int 30_000 & info [ "deploy-len" ] ~docv:"N" ~doc:"Deployment length.")
  in
  let fa_train_t =
    Arg.(
      value & opt int 20_000
      & info [ "fa-train-len" ] ~docv:"N"
          ~doc:"Training length for the false-alarm model (undertrained regime).")
  in
  Cmd.v
    (Cmd.info "lnb-threshold" ~exits
       ~doc:
         "Cost of lowering the L&B threshold to catch an MFS (T3): the table, \
          then its false-alarm rate plotted against the window.")
    Term.(const run $ params_t $ engine_t $ as_t $ deploy_t $ fa_train_t)

(* --- ablation / extensions --------------------------------------------- *)

(* The sections' maps are not kept, so the engine's count of failed
   cells decides the exit status. *)
let sections_cmd name ~doc ~what sections =
  let run params eng sections =
    with_engine eng @@ fun engine ->
    print_sections (context engine params) sections;
    match (Engine.stats engine).Engine.cells_failed with
    | 0 -> ()
    | failed ->
        partial_failure ~strict:false
          (Printf.sprintf "%d cell(s) failed after retries" failed)
  in
  Cmd.v (Cmd.info name ~exits ~doc)
    Term.(const run $ params_t $ engine_t $ which_t ~what sections)

let ablation_cmd =
  sections_cmd "ablation" ~what:"ablation"
    ~doc:"Run the A1-A4 and A6-A8 ablation studies." ablation_sections

let extensions_cmd =
  sections_cmd "extensions" ~what:"extension"
    ~doc:
      "Run the E1-E4 extension studies and the static-vs-adaptive threshold \
       comparison under drift."
    extension_sections

(* --- model (compile / score saved models) ------------------------------- *)

let model_cmd =
  (* A saved model's kind is self-describing: text models open with the
     versioned "#seqdiv-<kind>" header line, flat binaries with the
     "sqdvflat" magic. *)
  let sniff path =
    In_channel.with_open_bin path (fun ic ->
        let buf = Bytes.create 16 in
        let n = In_channel.input ic buf 0 16 in
        let head = Bytes.sub_string buf 0 n in
        let starts p =
          String.length head >= String.length p
          && String.sub head 0 (String.length p) = p
        in
        if starts "sqdvflat" then `Flat
        else if starts "#seqdiv-stide" then `Stide
        else if starts "#seqdiv-markov" then `Markov
        else `Unknown)
  in
  let compile_text path =
    (* Returns (detector name, alarm threshold, compiled scorer). *)
    let compile_with (type m) (module D : Detector.S with type model = m)
        (m : m) =
      match D.compile with
      | Some f -> (
          match f m with
          | Some scorer -> (D.name, 1.0 -. D.maximal_epsilon, scorer)
          | None ->
              Printf.eprintf "%s: this model has no compiled form\n" D.name;
              exit 1)
      | None ->
          Printf.eprintf "%s does not support compilation\n" D.name;
          exit 1
    in
    match sniff path with
    | `Stide -> compile_with (module Stide) (Model_io.load_stide_file path)
    | `Markov -> compile_with (module Markov) (Model_io.load_markov_file path)
    | `Flat ->
        Printf.eprintf "%s is already a compiled flat model\n" path;
        exit 1
    | `Unknown ->
        Printf.eprintf "%s: not a recognised seqdiv model file\n" path;
        exit 1
  in
  let run_compile verbose model_file out =
    setup_logging verbose;
    let name, alarm_threshold, scorer = compile_text model_file in
    Model_io.save_flat_file out ~detector:name ~alarm_threshold scorer;
    let auto = Flat_automaton.automaton scorer in
    Printf.printf "compiled %s model (window %d, %d states) to %s\n" name
      (Flat_automaton.depth auto)
      (Flat_automaton.states auto)
      out
  in
  let print_items (r : Response.t) =
    (* One "start score" line per window, scores in lossless hex float,
       so two scoring paths can be compared with a plain byte diff. *)
    Array.iter
      (fun (item : Response.item) ->
        Printf.printf "%d %h\n" item.Response.start item.Response.score)
      r.Response.items
  in
  let run_score verbose model_file trace_file =
    setup_logging verbose;
    let trace = Trace_io.of_file trace_file in
    let score_text (type m) (module D : Detector.S with type model = m)
        (m : m) =
      (* Text model: the detector's own descent over its model — the
         reference path the flat binary must match byte for byte. *)
      print_items (D.score m trace)
    in
    match sniff model_file with
    | `Flat ->
        let flat = Model_io.load_flat_file model_file in
        let window = flat.Model_io.flat_window in
        print_items
          (Detector.compiled_score_range flat.Model_io.flat_scorer
             ~detector:flat.Model_io.flat_detector trace ~lo:0
             ~hi:(Trace.length trace - window))
    | `Stide -> score_text (module Stide) (Model_io.load_stide_file model_file)
    | `Markov ->
        score_text (module Markov) (Model_io.load_markov_file model_file)
    | `Unknown ->
        Printf.eprintf "%s: not a recognised seqdiv model file\n" model_file;
        exit 1
  in
  let model_t =
    Arg.(
      required
      & opt (some file) None
      & info [ "model" ] ~docv:"FILE"
          ~doc:"Saved model (text #seqdiv-* or flat binary).")
  in
  let out_t =
    Arg.(
      required
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE" ~doc:"Output flat binary.")
  in
  let trace_t =
    Arg.(
      required
      & opt (some file) None
      & info [ "trace" ] ~docv:"FILE" ~doc:"Trace to score (Trace_io format).")
  in
  let compile_cmd =
    Cmd.v
      (Cmd.info "compile" ~exits
         ~doc:"Compile a saved text model to the mmap-ready flat binary.")
      Term.(const run_compile $ verbose_t $ model_t $ out_t)
  in
  let score_cmd =
    Cmd.v
      (Cmd.info "score" ~exits
         ~doc:
           "Score a trace with a saved model (text or flat), printing one \
            lossless 'start score' line per window.")
      Term.(const run_score $ verbose_t $ model_t $ trace_t)
  in
  Cmd.group
    (Cmd.info "model" ~exits
       ~doc:"Compile and run saved detector models (deployment workflow).")
    [ compile_cmd; score_cmd ]

(* --- detect ------------------------------------------------------------- *)

let detect_cmd =
  let run verbose (module D : Detector.S) window train_file test_file threshold
      gap save_model =
    setup_logging verbose;
    let training = Trace_io.of_file train_file in
    let test = Trace_io.of_file test_file in
    let trained = Trained.train (module D) ~window training in
    let threshold =
      match threshold with
      | Some t -> t
      | None -> Trained.alarm_threshold trained
    in
    (match (save_model, D.name) with
    | Some path, "stide" ->
        Model_io.save_stide_file path (Stide.train ~window training);
        Printf.printf "saved stide model to %s\n" path
    | Some path, "markov" ->
        Model_io.save_markov_file path (Markov.train ~window training);
        Printf.printf "saved markov model to %s\n" path
    | Some _, other ->
        Printf.eprintf "model persistence is not supported for %s\n" other
    | None, _ -> ());
    let response = Trained.score trained test in
    let incidents = Incident.of_response ~gap response ~threshold in
    Printf.printf
      "%s (window %d) on %d elements: %d window alarms, %d incident(s) at \
       threshold %.4f\n"
      D.name window (Trace.length test)
      (Response.count_over response ~threshold)
      (List.length incidents) threshold;
    List.iter
      (fun incident -> Format.printf "  %a@." Incident.pp incident)
      incidents
  in
  let detector_t =
    Arg.(
      required
      & opt (some detector_conv) None
      & info [ "d"; "detector" ] ~docv:"NAME" ~doc:"Detector.")
  in
  let window_t =
    Arg.(value & opt int 6 & info [ "window" ] ~docv:"DW" ~doc:"Detector window.")
  in
  let train_t =
    Arg.(
      required
      & opt (some file) None
      & info [ "train" ] ~docv:"FILE" ~doc:"Training trace (Trace_io format).")
  in
  let test_t =
    Arg.(
      required
      & opt (some file) None
      & info [ "test" ] ~docv:"FILE" ~doc:"Trace to score.")
  in
  let threshold_t =
    Arg.(
      value
      & opt (some float) None
      & info [ "threshold" ] ~docv:"T"
          ~doc:"Alarm threshold (default: the detector's maximal band).")
  in
  let gap_t =
    Arg.(
      value & opt int 0
      & info [ "gap" ] ~docv:"N" ~doc:"Coalesce alarms separated by up to N positions.")
  in
  let save_model_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "save-model" ] ~docv:"FILE"
          ~doc:"Also persist the trained model (stide and markov only).")
  in
  Cmd.v
    (Cmd.info "detect" ~exits
       ~doc:"Train on one trace file and report incidents on another.")
    Term.(
      const run $ verbose_t $ detector_t $ window_t $ train_t $ test_t
      $ threshold_t $ gap_t $ save_model_t)

(* --- dataset ------------------------------------------------------------ *)

let dataset_cmd =
  let run params dir check =
    if check then begin
      let suite = Dataset_io.load ~dir in
      let p = suite.Suite.params in
      Printf.printf
        "dataset at %s: alphabet %d, training %d elements, %d test streams — \
         ground truth verified\n"
        dir p.Suite.alphabet_size p.Suite.train_len
        (Array.length suite.Suite.streams)
    end
    else begin
      let suite = Suite.build params in
      Dataset_io.save suite ~dir;
      Printf.printf "wrote evaluation corpus (%d streams) to %s\n"
        (Array.length suite.Suite.streams)
        dir
    end
  in
  let dir_t =
    Arg.(
      required
      & opt (some string) None
      & info [ "dir" ] ~docv:"DIR" ~doc:"Corpus directory.")
  in
  let check_t =
    Arg.(
      value & flag
      & info [ "check" ] ~doc:"Load and verify an existing corpus instead of generating.")
  in
  Cmd.v
    (Cmd.info "dataset" ~exits
       ~doc:"Generate the evaluation corpus to a directory, or verify one.")
    Term.(const run $ params_t $ dir_t $ check_t)

(* --- compare ------------------------------------------------------------ *)

let compare_cmd =
  let run verbose (module A : Detector.S) (module B : Detector.S) window
      train_file test_file =
    setup_logging verbose;
    let training = Trace_io.of_file train_file in
    let test = Trace_io.of_file test_file in
    let a = Trained.train (module A) ~window training in
    let b = Trained.train (module B) ~window training in
    let ra = Trained.score a test and rb = Trained.score b test in
    let ta = Trained.alarm_threshold a and tb = Trained.alarm_threshold b in
    let alarms_a = Response.count_over ra ~threshold:ta in
    let alarms_b = Response.count_over rb ~threshold:tb in
    let corroboration =
      Ensemble.suppress ~primary:(ra, ta) ~suppressor:(rb, tb)
    in
    let both = corroboration.Ensemble.corroborated in
    Printf.printf
      "%s: %d alarms; %s: %d alarms; raised by both: %d\n" A.name alarms_a
      B.name alarms_b both;
    Printf.printf "%s-only alarms: %d; %s-only alarms: %d\n" A.name
      (alarms_a - both) B.name (alarms_b - both);
    let union = alarms_a + alarms_b - both in
    if union > 0 then
      Printf.printf "alarm-set jaccard: %.3f\n"
        (float_of_int both /. float_of_int union)
    else print_endline "no alarms from either detector";
    let disjunction =
      Ensemble.combine Ensemble.Any [ (ra, ta); (rb, tb) ]
    in
    let conjunction =
      Ensemble.combine Ensemble.All [ (ra, ta); (rb, tb) ]
    in
    Printf.printf "ensemble alarms: any=%d  all=%d\n"
      (Response.count_over disjunction ~threshold:1.0)
      (Response.count_over conjunction ~threshold:1.0)
  in
  let detector_opt option_name doc =
    let docv = "NAME" in
    Arg.(
      required
      & opt (some detector_conv) None
      & info [ option_name ] ~docv ~doc)
  in
  let window_t =
    Arg.(value & opt int 6 & info [ "window" ] ~docv:"DW" ~doc:"Detector window.")
  in
  let train_t =
    Arg.(
      required
      & opt (some file) None
      & info [ "train" ] ~docv:"FILE" ~doc:"Training trace.")
  in
  let test_t =
    Arg.(
      required
      & opt (some file) None
      & info [ "test" ] ~docv:"FILE" ~doc:"Trace to score.")
  in
  Cmd.v
    (Cmd.info "compare" ~exits
       ~doc:"Measure how two detectors' alarm sets overlap on your traces.")
    Term.(
      const run $ verbose_t
      $ detector_opt "a" "First detector."
      $ detector_opt "b" "Second detector."
      $ window_t $ train_t $ test_t)

(* --- classify (UNM-style per-process traces) ----------------------------- *)

let classify_cmd =
  let run verbose window train_file test_file =
    setup_logging verbose;
    (* The classic "sense of self" workflow: train stide on the benign
       per-process traces, then classify each monitored process.  The
       normal database is built per session so no window spans a process
       boundary. *)
    let train_sessions, mapping = Syscall_trace.parse_file train_file in
    let test_sessions, test_mapping = Syscall_trace.parse_file test_file in
    if Array.length test_mapping > Array.length mapping then
      Printf.printf
        "note: the monitored traces use %d distinct calls vs %d in training — \
         novel calls are necessarily foreign\n"
        (Array.length test_mapping) (Array.length mapping);
    let trie =
      Seq_trie.of_traces ~max_len:window (Sessions.traces train_sessions)
    in
    let model = Stide.of_trie trie ~window in
    Printf.printf
      "trained stide (window %d) on %d sessions / %d calls (%d distinct \
       sequences)\n"
      window
      (Sessions.count train_sessions)
      (Sessions.total_length train_sessions)
      (Seq_trie.distinct trie window);
    List.iteri
      (fun i session ->
        if Trace.length session < window then
          Printf.printf "  session %d: too short to judge (%d calls)\n" (i + 1)
            (Trace.length session)
        else begin
          let response = Stide.score model session in
          let incidents = Incident.of_response response ~threshold:1.0 in
          match incidents with
          | [] ->
              Printf.printf "  session %d: normal (%d calls)\n" (i + 1)
                (Trace.length session)
          | _ ->
              Printf.printf "  session %d: ANOMALOUS — %d incident(s)\n" (i + 1)
                (List.length incidents);
              List.iter
                (fun incident -> Format.printf "    %a@." Incident.pp incident)
                incidents
        end)
      (Sessions.traces test_sessions)
  in
  let window_t =
    Arg.(value & opt int 6 & info [ "window" ] ~docv:"DW" ~doc:"Detector window.")
  in
  let train_t =
    Arg.(
      required
      & opt (some file) None
      & info [ "train" ] ~docv:"FILE"
          ~doc:"Benign per-process traces (UNM pid/syscall format).")
  in
  let test_t =
    Arg.(
      required
      & opt (some file) None
      & info [ "test" ] ~docv:"FILE" ~doc:"Monitored traces to classify.")
  in
  Cmd.v
    (Cmd.info "classify" ~exits
       ~doc:
         "Classify per-process system-call traces with stide (UNM pid/syscall \
          format).")
    Term.(const run $ verbose_t $ window_t $ train_t $ test_t)

(* --- serve / serve-bench (streaming service) ----------------------------- *)

(* Shared by serve and serve-bench: exactly one of --socket / --tcp. *)
let socket_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH" ~doc:"Serve on a Unix-domain socket.")

let tcp_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "tcp" ] ~docv:"HOST:PORT" ~doc:"Serve on a TCP socket.")

let address_of socket tcp =
  match (socket, tcp) with
  | Some path, None -> Serve.Unix_socket path
  | None, Some hostport -> (
      match String.rindex_opt hostport ':' with
      | Some i -> (
          let host = String.sub hostport 0 i in
          let port = String.sub hostport (i + 1) (String.length hostport - i - 1) in
          match int_of_string_opt port with
          | Some port when port > 0 && port < 65536 -> Serve.Tcp (host, port)
          | Some _ | None ->
              Printf.eprintf "seqdiv: bad port in --tcp %s\n" hostport;
              exit 2)
      | None ->
          Printf.eprintf "seqdiv: --tcp expects HOST:PORT, got %s\n" hostport;
          exit 2)
  | Some _, Some _ | None, None ->
      prerr_endline "seqdiv: give exactly one of --socket PATH or --tcp HOST:PORT";
      exit 2

let load_flat_or_exit model_file =
  match Model_io.load_flat_file model_file with
  | flat -> flat
  | exception Parse_error.Error msg ->
      Printf.eprintf
        "seqdiv: %s\n(serve needs a compiled flat model — produce one with \
         `seqdiv model compile`)\n"
        msg;
      exit 1

let serve_cmd =
  let run verbose model_file socket tcp shards queue_capacity retry_after_ms
      journal_dir resume deadline_ms max_connections max_restarts
      write_timeout_ms chaos_serve chaos_crash chaos_hang chaos_torn
      chaos_sticky threshold alarm_budget =
    setup_logging verbose;
    let address = address_of socket tcp in
    let chaos =
      Option.map
        (fun seed ->
          match
            Fault_plan.of_seed ~transient_rate:chaos_crash
              ~hang_rate:chaos_hang ~torn_rate:chaos_torn ~sticky:chaos_sticky
              ~seed ()
          with
          | plan -> plan
          | exception Invalid_argument msg ->
              Printf.eprintf "seqdiv: %s\n" msg;
              exit 2)
        chaos_serve
    in
    let flat = load_flat_or_exit model_file in
    let threshold =
      match threshold with
      | Some t -> t
      | None -> flat.Model_io.flat_alarm_threshold
    in
    let adaptive =
      Option.map
        (fun budget ->
          if not (budget > 0.0 && budget < 1.0) then begin
            prerr_endline "seqdiv: --alarm-budget must be strictly between 0 and 1";
            exit 2
          end;
          Adaptive_threshold.config ~budget ~initial:threshold ())
        alarm_budget
    in
    let deadline =
      Option.map
        (fun budget_ms ->
          if budget_ms <= 0 then begin
            prerr_endline "seqdiv: --deadline-ms must be positive";
            exit 2
          end;
          Seqdiv_util.Deadline.spec ~clock:Unix.gettimeofday ~budget_ms)
        deadline_ms
    in
    let auto = Flat_automaton.automaton flat.Model_io.flat_scorer in
    let config =
      {
        Serve.address;
        shards;
        queue_capacity;
        retry_after_ms;
        scorer = flat.Model_io.flat_scorer;
        threshold;
        adaptive;
        model_tag = flat.Model_io.flat_detector;
        journal_dir;
        resume;
        deadline;
        clock = Unix.gettimeofday;
        max_connections;
        max_restarts;
        write_timeout_ms;
        chaos;
      }
    in
    let on_ready () =
      Printf.printf "serving %s model (window %d, %d states) on %s: %d shard(s)\n%!"
        flat.Model_io.flat_detector
        (Flat_automaton.depth auto)
        (Flat_automaton.states auto)
        (match address with
        | Serve.Unix_socket path -> path
        | Serve.Tcp (host, port) -> Printf.sprintf "%s:%d" host port)
        shards;
      Option.iter
        (fun plan -> Printf.printf "%s\n%!" (Fault_plan.describe plan))
        chaos
    in
    match Serve.run ~on_ready config with
    | stats ->
        List.iter
          (fun (s : Frame.shard_stats) ->
            Printf.printf
              "shard %d: %d batches, %d events, %d symbols, %d rejected, %d \
               sessions resident (%d KiB)%s\n"
              s.Frame.shard s.Frame.batches s.Frame.events s.Frame.symbols
              s.Frame.rejected s.Frame.sessions_resident
              (s.Frame.bytes_resident / 1024)
              (if s.Frame.degraded then
                 Printf.sprintf ", DEGRADED after %d restart(s)" s.Frame.restarts
               else if s.Frame.restarts > 0 then
                 Printf.sprintf ", %d restart(s)" s.Frame.restarts
               else ""))
          stats
    | exception Shard_journal.Corrupt msg ->
        Printf.eprintf "seqdiv: shard journal rejected: %s\n" msg;
        exit 1
    | exception Invalid_argument msg ->
        Printf.eprintf "seqdiv: %s\n" msg;
        exit 2
  in
  let model_t =
    Arg.(
      required
      & opt (some file) None
      & info [ "model" ] ~docv:"FILE"
          ~doc:"Compiled flat model (from $(b,seqdiv model compile)).")
  in
  let shards_t =
    Arg.(
      value & opt int 1
      & info [ "shards" ] ~docv:"N"
          ~doc:
            "Shard count: sessions are routed by session-id hash to $(docv) \
             independent monitor tables, each stepped by its own domain.")
  in
  let queue_capacity_t =
    Arg.(
      value
      & opt int Serve.default_queue_capacity
      & info [ "queue-capacity" ] ~docv:"N"
          ~doc:
            "Bounded ingress queue per shard, in sub-batches.  A batch \
             touching any full shard is rejected whole with a retry-after \
             hint — backpressure, not buffering.")
  in
  let retry_after_t =
    Arg.(
      value
      & opt int Serve.default_retry_after_ms
      & info [ "retry-after-ms" ] ~docv:"MS"
          ~doc:
            "Floor of the adaptive retry hint carried by backpressure \
             rejections (queue depth times median recent service time, \
             capped at 1000 ms).")
  in
  let journal_dir_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal-dir" ] ~docv:"DIR"
          ~doc:
            "Append a per-shard journal of session snapshots and batch \
             incidents under $(docv); with $(b,--resume), a killed server \
             restarts from it with byte-identical subsequent output.")
  in
  let max_connections_t =
    Arg.(
      value
      & opt int Serve.default_max_connections
      & info [ "max-connections" ] ~docv:"N"
          ~doc:"Concurrent client connections accepted.")
  in
  let threshold_t =
    Arg.(
      value
      & opt (some float) None
      & info [ "threshold" ] ~docv:"T"
          ~doc:"Alarm threshold (default: the model file's own).")
  in
  let alarm_budget_t =
    Arg.(
      value
      & opt (some float) None
      & info [ "alarm-budget" ] ~docv:"RATE"
          ~doc:
            "Adaptive thresholding: per-session monitors track the \
             $(docv)-tail score quantile with a streaming sketch, so the \
             observed false-alarm rate converges on $(docv) instead of \
             depending on a hand-picked $(b,--threshold) (which still \
             seeds the controller's starting point).  Strictly between 0 \
             and 1.")
  in
  let max_restarts_t =
    Arg.(
      value
      & opt int Serve.default_max_restarts
      & info [ "max-restarts" ] ~docv:"N"
          ~doc:
            "Consecutive supervised restarts of one shard domain before it \
             degrades instead (restarting needs $(b,--journal-dir); the \
             budget resets whenever the shard answers a batch).")
  in
  let write_timeout_t =
    Arg.(
      value
      & opt int Serve.default_write_timeout_ms
      & info [ "write-timeout-ms" ] ~docv:"MS"
          ~doc:
            "Per-write stall budget: a client whose socket cannot absorb a \
             response within $(docv) ms is evicted.")
  in
  let chaos_serve_t =
    Arg.(
      value
      & opt (some int) None
      & info [ "chaos-serve" ] ~docv:"SEED"
          ~doc:
            "Enable seeded serve-layer fault injection: shard crashes, shard \
             hangs and torn response frames, decided statelessly from \
             $(docv) so runs replay exactly.")
  in
  let chaos_crash_t =
    Arg.(
      value & opt float 0.05
      & info [ "chaos-crash" ] ~docv:"RATE"
          ~doc:
            "With $(b,--chaos-serve): fraction of sub-batches whose shard \
             domain crashes (Transient — the supervisor restarts it from \
             the journal).")
  in
  let chaos_hang_t =
    Arg.(
      value & opt float 0.0
      & info [ "chaos-hang" ] ~docv:"RATE"
          ~doc:
            "With $(b,--chaos-serve): fraction of sub-batches that hang \
             their shard until the armed $(b,--deadline-ms) fires.")
  in
  let chaos_torn_t =
    Arg.(
      value & opt float 0.0
      & info [ "chaos-torn" ] ~docv:"RATE"
          ~doc:
            "With $(b,--chaos-serve): fraction of response frames torn on \
             the wire (first write only; the post-reconnect resend passes).")
  in
  let chaos_sticky_t =
    Arg.(
      value & opt int 1
      & info [ "chaos-sticky" ] ~docv:"N"
          ~doc:
            "With $(b,--chaos-serve): crash-fated sub-batches fail their \
             first $(docv) attempts, then succeed.")
  in
  Cmd.v
    (Cmd.info "serve" ~exits
       ~doc:
         "Serve streaming anomaly detection over a socket: sharded \
          multi-session monitors on a shared compiled model, batched framed \
          ingest, bounded queues with honest backpressure, durable per-shard \
          journals.")
    Term.(
      const run $ verbose_t $ model_t $ socket_t $ tcp_t $ shards_t
      $ queue_capacity_t $ retry_after_t $ journal_dir_t $ resume_t
      $ deadline_t $ max_connections_t $ max_restarts_t $ write_timeout_t
      $ chaos_serve_t $ chaos_crash_t $ chaos_hang_t $ chaos_torn_t
      $ chaos_sticky_t $ threshold_t $ alarm_budget_t)

let serve_bench_cmd =
  let run verbose socket tcp sessions session_length rounds connections
      chunk batch_events inflight window anomaly_size anomalous_every seed
      train_len reconnect stall_ms incident_log quit =
    setup_logging verbose;
    let address = address_of socket tcp in
    let options =
      {
        Bench_client.address;
        sessions;
        session_length;
        rounds;
        connections;
        chunk;
        batch_events;
        inflight;
        window;
        anomaly_size;
        anomalous_every;
        seed;
        train_len;
        reconnect;
        stall_ms;
        incident_log;
        quit;
      }
    in
    match Bench_client.run options with
    | () -> ()
    | exception Bench_client.Protocol_failure msg ->
        Printf.eprintf "seqdiv: serve-bench failed: %s\n" msg;
        exit 1
  in
  let sessions_t =
    Arg.(
      value & opt int 48
      & info [ "sessions" ] ~docv:"N" ~doc:"Concurrent sessions per round.")
  in
  let session_length_t =
    Arg.(
      value & opt int 400
      & info [ "session-length" ] ~docv:"N" ~doc:"Symbols per session.")
  in
  let rounds_t =
    Arg.(
      value & opt int 1
      & info [ "rounds" ] ~docv:"N"
          ~doc:"Rounds of fresh sessions driven over the same corpus.")
  in
  let connections_t =
    Arg.(
      value & opt int 1
      & info [ "connections" ] ~docv:"N"
          ~doc:"Client connections; sessions are partitioned across them.")
  in
  let chunk_t =
    Arg.(
      value & opt int 64
      & info [ "chunk" ] ~docv:"N" ~doc:"Symbols per data event.")
  in
  let batch_events_t =
    Arg.(
      value & opt int 256
      & info [ "batch-events" ] ~docv:"N" ~doc:"Events per batch.")
  in
  let inflight_t =
    Arg.(
      value & opt int 8
      & info [ "inflight" ] ~docv:"N"
          ~doc:"Unacknowledged batches allowed per connection.")
  in
  let window_t =
    Arg.(
      value & opt int 6
      & info [ "window" ] ~docv:"DW"
          ~doc:"Detector window assumed for anomaly injection.")
  in
  let anomaly_size_t =
    Arg.(
      value & opt int 5
      & info [ "anomaly-size" ] ~docv:"AS" ~doc:"Injected anomaly size.")
  in
  let anomalous_every_t =
    Arg.(
      value & opt int 4
      & info [ "anomalous-every" ] ~docv:"K"
          ~doc:"Every $(docv)-th session carries an injected anomaly (0 = none).")
  in
  let reconnect_t =
    Arg.(
      value & flag
      & info [ "reconnect" ]
          ~doc:
            "Survive a dying server: reconnect with retries and resend \
             unacknowledged batches (journalled shards re-acknowledge \
             duplicates without re-applying them).")
  in
  let stall_ms_t =
    Arg.(
      value & opt int 0
      & info [ "chaos-stall-ms" ] ~docv:"MS"
          ~doc:
            "Stalled-client chaos: connection 0 stops reading acks for \
             $(docv) ms halfway through its batches, provoking the \
             server's slow-client eviction (pair with $(b,--reconnect) \
             so the evicted connection resends its tail).")
  in
  let incident_log_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "incident-log" ] ~docv:"FILE"
          ~doc:
            "Write the collected incident events, grouped by session in \
             session order — byte-comparable across runs and shard counts.")
  in
  let quit_t =
    Arg.(
      value & flag
      & info [ "quit" ] ~doc:"Ask the server to shut down when done.")
  in
  Cmd.v
    (Cmd.info "serve-bench" ~exits
       ~doc:
         "Drive a running $(b,seqdiv serve) with a synthetic session \
          workload over the socket, collect its incident log and print \
          one line counting what was driven (events, symbols, rejections, \
          failed batches, reconnects).  Performance is measured by \
          perfbench, not here.")
    Term.(
      const run $ verbose_t $ socket_t $ tcp_t $ sessions_t
      $ session_length_t $ rounds_t $ connections_t $ chunk_t $ batch_events_t
      $ inflight_t $ window_t $ anomaly_size_t $ anomalous_every_t $ seed_t
      $ train_len_t $ reconnect_t $ stall_ms_t $ incident_log_t $ quit_t)

let serve_health_cmd =
  let run socket tcp drain =
    let address = address_of socket tcp in
    match Bench_client.probe_health ~address ~drain with
    | health, drained ->
        print_string (Frame.render_health health);
        Option.iter
          (fun batches -> Printf.printf "drained: %d batches applied\n" batches)
          drained
    | exception Bench_client.Protocol_failure msg ->
        Printf.eprintf "seqdiv: serve-health failed: %s\n" msg;
        exit 1
    | exception Unix.Unix_error (err, _, _) ->
        Printf.eprintf "seqdiv: serve-health failed: %s\n"
          (Unix.error_message err);
        exit 1
  in
  let drain_t =
    Arg.(
      value & flag
      & info [ "drain" ]
          ~doc:
            "Also ask the server to drain: stop admitting new batches and \
             report once every shard queue has gone idle.")
  in
  Cmd.v
    (Cmd.info "serve-health" ~exits
       ~doc:
         "Probe a running $(b,seqdiv serve): per-shard liveness, restart \
          counts, degradation, queue depths and the adaptive retry hints.")
    Term.(const run $ socket_t $ tcp_t $ drain_t)

(* --- main -------------------------------------------------------------- *)

let () =
  let info =
    Cmd.info "seqdiv" ~exits ~version:"1.0.0"
      ~doc:
        "Reproduction of Tan & Maxion, 'The Effects of Algorithmic Diversity \
         on Anomaly Detector Performance' (DSN 2005)."
  in
  let group =
    Cmd.group info
      [
        synth_cmd; mfs_cmd; map_cmd; full_cmd; roc_cmd; ensemble_cmd; lnb_cmd;
        ablation_cmd; extensions_cmd; model_cmd; detect_cmd; dataset_cmd;
        compare_cmd; classify_cmd; serve_cmd; serve_bench_cmd;
        serve_health_cmd;
      ]
  in
  (* A malformed input file is the user's error, not a bug: one line on
     stderr and exit 1, as [load_flat_or_exit] does for serve, instead of
     cmdliner's "internal error" and 125.  Any other exception is still
     reported as an internal error. *)
  match Cmd.eval ~catch:false group with
  | code -> exit code
  | exception Parse_error.Error msg ->
      Printf.eprintf "seqdiv: %s\n" msg;
      exit 1
  | exception e ->
      let backtrace = Printexc.get_backtrace () in
      Printf.eprintf "seqdiv: internal error, uncaught exception:\n%s\n%s%!"
        (Printexc.to_string e) backtrace;
      exit Cmd.Exit.internal_error
