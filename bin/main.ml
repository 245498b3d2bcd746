(* seqdiv — command-line driver for the diversity study.

   Reproduction subcommands: synth, mfs, map, full, roc, ensemble,
   lnb-threshold, ablation (every experiment of DESIGN.md section 3 can
   be regenerated from here; `seqdiv full` prints the complete paper
   reproduction).  Tool subcommands for user data: detect, compare,
   classify, dataset. *)

open Cmdliner
open Seqdiv_stream
open Seqdiv_synth
open Seqdiv_core
open Seqdiv_detectors
open Seqdiv_report

(* --- shared options ---------------------------------------------------- *)

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
  let make jobs trace deadline_ms =
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
    (Engine.create ~clock:Unix.gettimeofday ~jobs ?deadline (), trace)
  in
  Term.(const make $ jobs_t $ trace_t $ deadline_t)

(* Run one command body against the shared engine and honour --trace. *)
(* A fault that escapes a stage without per-cell isolation (the
   deployment tables, ablations) is a partial failure of the run, not
   an internal error: report it and use the partial-failure exit
   code.  The performance maps printed before the stage are intact. *)
let with_engine (engine, trace) f =
  match f engine with
  | result ->
      if trace then
        Format.eprintf "%a@." Engine.pp_stats (Engine.stats engine);
      result
  | exception Fault.Error fault ->
      if trace then
        Format.eprintf "%a@." Engine.pp_stats (Engine.stats engine);
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

(* Honest exit status: a map with failed cells is a partial result and
   must not exit 0.  One summary line on stderr; 2 by default, 1 under
   --strict. *)
let check_failures ~strict maps =
  let failed =
    List.fold_left
      (fun acc m -> acc + List.length (Performance_map.failed_cells m))
      0 maps
  in
  if failed > 0 then begin
    let total =
      List.fold_left (fun acc m -> acc + Performance_map.cell_count m) 0 maps
    in
    Printf.eprintf
      "seqdiv: partial failure: %d of %d cell(s) failed after retries (rerun \
       with --journal FILE --resume to retry only those)\n%!"
      failed total;
    exit (if strict then 1 else 2)
  end

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

(* --- synth ------------------------------------------------------------- *)

let synth_cmd =
  let run params out =
    let suite = Suite.build params in
    Trace_io.to_file out suite.Suite.training;
    Printf.printf "wrote %d training elements to %s\n"
      (Trace.length suite.Suite.training)
      out
  in
  let out_t =
    Arg.(value & opt string "training.trace" & info [ "o"; "output" ] ~doc:"Output file.")
  in
  Cmd.v
    (Cmd.info "synth" ~doc:"Generate the synthetic training stream to a file.")
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
    (Cmd.info "mfs"
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
    (Cmd.info "map" ~man
       ~doc:"Reproduce the performance maps of Figures 3-6 for chosen detectors.")
    Term.(
      const run $ params_t $ engine_t $ detectors_t $ csv_t $ journal_t
      $ resume_t $ strict_t)

(* --- full -------------------------------------------------------------- *)

let full_cmd =
  let run params eng journal resume strict =
    with_engine eng @@ fun engine ->
    let suite = Suite.build params in
    let journal = open_journal params journal resume in
    print_string (Paper.figure2 suite ~window:5 ~anomaly_size:8);
    print_newline ();
    print_string (Paper.figure7 ());
    print_newline ();
    let maps = Experiment.all_maps ~engine ?journal suite Registry.all in
    List.iter
      (fun m ->
        print_string (Paper.figure_map m);
        print_newline ())
      maps;
    print_string (Paper.table1 maps);
    print_newline ();
    let t2 =
      Deployment.suppressor_experiment ~engine suite ~window:8 ~anomaly_size:5
        ~deploy_len:30_000 ~seed:(params.Suite.seed + 1)
    in
    print_string (Paper.table2 t2);
    print_newline ();
    let deploy =
      Deployment.deployment_stream suite ~len:30_000 ~seed:(params.Suite.seed + 2)
    in
    let fa_training =
      Trace.sub suite.Suite.training ~pos:0
        ~len:(Stdlib.min (Trace.length suite.Suite.training) 20_000)
    in
    let t3 =
      Deployment.lnb_threshold_experiment ~engine suite ~anomaly_size:5
        ~deploy_trace:deploy ~fa_training
    in
    print_string (Paper.table3 t3);
    check_failures ~strict maps
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
    (Cmd.info "full" ~man
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
    (Cmd.info "roc" ~doc:"Threshold sweep: hit rate vs false-alarm rate.")
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
    (Cmd.info "ensemble"
       ~doc:"Markov+Stide false-alarm suppression experiment (T2).")
    Term.(const run $ params_t $ engine_t $ window_t $ as_t $ deploy_t)

(* --- lnb-threshold ----------------------------------------------------- *)

let lnb_cmd =
  let run params eng anomaly_size deploy_len fa_train_len =
    with_engine eng @@ fun engine ->
    let suite = Suite.build params in
    let deploy =
      Deployment.deployment_stream suite ~len:deploy_len
        ~seed:(params.Suite.seed + 2)
    in
    let fa_training =
      Trace.sub suite.Suite.training ~pos:0
        ~len:(Stdlib.min (Trace.length suite.Suite.training) fa_train_len)
    in
    let points =
      Deployment.lnb_threshold_experiment ~engine suite ~anomaly_size
        ~deploy_trace:deploy ~fa_training
    in
    print_string (Paper.table3 points)
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
    (Cmd.info "lnb-threshold"
       ~doc:"Cost of lowering the L&B threshold to catch an MFS (T3).")
    Term.(const run $ params_t $ engine_t $ as_t $ deploy_t $ fa_train_t)

(* --- ablation ----------------------------------------------------------- *)

let ablation_cmd =
  let run params eng which =
    with_engine eng @@ fun engine ->
    let suite = Suite.build params in
    let deploy =
      Deployment.deployment_stream suite ~len:30_000 ~seed:(params.Suite.seed + 2)
    in
    let fa_training =
      Trace.sub suite.Suite.training ~pos:0
        ~len:(Stdlib.min (Trace.length suite.Suite.training) 20_000)
    in
    let run_a1 () =
      let test = Suite.stream suite ~anomaly_size:4 ~window:6 in
      print_string
        (Paper.ablation1
           (Ablation.lfc_experiment ~engine ~training:fa_training
              ~injection:test.Suite.injection ~deploy ~window:6
              ~settings:[ (20, 1); (20, 2); (20, 4); (50, 8) ] ()))
    in
    let run_a2 () =
      let base = Neural.default_params in
      print_string
        (Paper.ablation2
           (Ablation.nn_sensitivity ~engine suite ~window:6
              ~params:
                [
                  base;
                  { base with Neural.hidden = 1 };
                  { base with Neural.epochs = 10 };
                  { base with Neural.learning_rate = 0.005; epochs = 50 };
                ]))
    in
    let run_a3 () =
      let base =
        Suite.scaled_params
          ~train_len:(Stdlib.min params.Suite.train_len 80_000)
          ~background_len:4_000
      in
      print_string
        (Paper.ablation3
           (Ablation.alphabet_invariance ~engine ~base ~sizes:[ 6; 8; 12 ] ()))
    in
    let run_a4 () =
      print_string
        (Paper.ablation4
           (Ablation.rare_threshold_sweep suite
              ~thresholds:[ 0.00005; 0.0001; 0.0005; 0.005; 0.05; 0.2 ]))
    in
    match which with
    | "a1" -> run_a1 ()
    | "a2" -> run_a2 ()
    | "a3" -> run_a3 ()
    | "a4" -> run_a4 ()
    | "all" ->
        run_a1 ();
        run_a2 ();
        run_a3 ();
        run_a4 ()
    | other ->
        prerr_endline ("unknown ablation " ^ other ^ " (a1|a2|a3|a4|all)");
        exit 2
  in
  let which_t =
    Arg.(
      value & opt string "all"
      & info [ "which" ] ~docv:"ID" ~doc:"Which ablation: a1, a2, a3, a4 or all.")
  in
  Cmd.v
    (Cmd.info "ablation" ~doc:"Run the A1-A4 ablation studies.")
    Term.(const run $ params_t $ engine_t $ which_t)

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
      (Cmd.info "compile"
         ~doc:"Compile a saved text model to the mmap-ready flat binary.")
      Term.(const run_compile $ verbose_t $ model_t $ out_t)
  in
  let score_cmd =
    Cmd.v
      (Cmd.info "score"
         ~doc:
           "Score a trace with a saved model (text or flat), printing one \
            lossless 'start score' line per window.")
      Term.(const run_score $ verbose_t $ model_t $ trace_t)
  in
  Cmd.group
    (Cmd.info "model"
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
    (Cmd.info "detect"
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
    (Cmd.info "dataset"
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
    (Cmd.info "compare"
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
    let db = Sessions.seq_db train_sessions ~width:window in
    let model = Stide.train_of_db db in
    Printf.printf
      "trained stide (window %d) on %d sessions / %d calls (%d distinct \
       sequences)\n"
      window
      (Sessions.count train_sessions)
      (Sessions.total_length train_sessions)
      (Seq_db.cardinal db);
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
    (Cmd.info "classify"
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
            Fault_plan.Serve.of_seed ~crash_rate:chaos_crash
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
        (fun plan -> Printf.printf "%s\n%!" (Fault_plan.Serve.describe plan))
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
    (Cmd.info "serve"
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
  let run verbose socket tcp ndjson sessions session_length rounds connections
      chunk batch_events inflight window anomaly_size anomalous_every seed
      train_len reconnect stall_ms incident_log quit =
    setup_logging verbose;
    let address = address_of socket tcp in
    let options =
      {
        Bench_client.address;
        encoding = (if ndjson then Frame.Ndjson else Frame.Binary);
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
  let ndjson_t =
    Arg.(
      value & flag
      & info [ "ndjson" ]
          ~doc:"Speak the newline-delimited JSON framing instead of binary.")
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
    (Cmd.info "serve-bench"
       ~doc:
         "Drive a running $(b,seqdiv serve) with a synthetic session \
          workload over the socket, collect its incident log and print \
          one line counting what was driven (events, symbols, rejections, \
          failed batches, reconnects).  Performance is measured by \
          perfbench, not here.")
    Term.(
      const run $ verbose_t $ socket_t $ tcp_t $ ndjson_t $ sessions_t
      $ session_length_t $ rounds_t $ connections_t $ chunk_t $ batch_events_t
      $ inflight_t $ window_t $ anomaly_size_t $ anomalous_every_t $ seed_t
      $ train_len_t $ reconnect_t $ stall_ms_t $ incident_log_t $ quit_t)

let serve_health_cmd =
  let run socket tcp ndjson drain =
    let address = address_of socket tcp in
    let encoding = if ndjson then Frame.Ndjson else Frame.Binary in
    match Bench_client.probe_health ~address ~encoding ~drain with
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
  let ndjson_t =
    Arg.(
      value & flag
      & info [ "ndjson" ]
          ~doc:"Speak the newline-delimited JSON framing instead of binary.")
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
    (Cmd.info "serve-health"
       ~doc:
         "Probe a running $(b,seqdiv serve): per-shard liveness, restart \
          counts, degradation, queue depths and the adaptive retry hints.")
    Term.(const run $ socket_t $ tcp_t $ ndjson_t $ drain_t)

(* --- main -------------------------------------------------------------- *)

let () =
  let info =
    Cmd.info "seqdiv" ~version:"1.0.0"
      ~doc:
        "Reproduction of Tan & Maxion, 'The Effects of Algorithmic Diversity \
         on Anomaly Detector Performance' (DSN 2005)."
  in
  let group =
    Cmd.group info
      [
        synth_cmd; mfs_cmd; map_cmd; full_cmd; roc_cmd; ensemble_cmd; lnb_cmd;
        ablation_cmd; model_cmd; detect_cmd; dataset_cmd; compare_cmd;
        classify_cmd; serve_cmd; serve_bench_cmd; serve_health_cmd;
      ]
  in
  exit (Cmd.eval group)
