(* End-to-end reproduction checks: the paper's qualitative claims must
   hold on a reduced-scale suite.  These are the assertions behind
   EXPERIMENTS.md. *)

open Seqdiv_synth
open Seqdiv_core
open Seqdiv_detectors
open Seqdiv_test_support

let maps = lazy (Experiment.all_maps (tiny_suite ()) Registry.all)

let map name =
  List.find (fun m -> Performance_map.detector m = name) (Lazy.force maps)

let test_stide_diagonal () =
  let m = map "stide" in
  Performance_map.fold m ~init:() ~f:(fun () ~anomaly_size ~window o ->
      Alcotest.(check bool)
        (Printf.sprintf "stide AS=%d DW=%d" anomaly_size window)
        (window >= anomaly_size) (Outcome.is_capable o);
      if window < anomaly_size then
        Alcotest.(check bool) "exactly blind below diagonal" true
          (Outcome.is_blind o))

let test_markov_everywhere () =
  let m = map "markov" in
  Performance_map.fold m ~init:() ~f:(fun () ~anomaly_size ~window o ->
      Alcotest.(check bool)
        (Printf.sprintf "markov AS=%d DW=%d" anomaly_size window)
        true (Outcome.is_capable o))

let test_nn_mimics_markov () =
  let m = map "nn" in
  Alcotest.(check bool) "nn covers the space" true
    (Coverage.equal (Coverage.of_map m) (Coverage.of_map (map "markov")))

let test_lnb_never_capable () =
  let m = map "lnb" in
  Alcotest.(check int) "no capable cells" 0
    (List.length (Performance_map.capable_cells m));
  (* and exactly zero response below the diagonal, graded above *)
  Performance_map.fold m ~init:() ~f:(fun () ~anomaly_size ~window o ->
      if window < anomaly_size then
        Alcotest.(check bool)
          (Printf.sprintf "lnb blind below diagonal AS=%d DW=%d" anomaly_size
             window)
          true (Outcome.is_blind o)
      else
        Alcotest.(check bool)
          (Printf.sprintf "lnb weak at AS=%d DW=%d" anomaly_size window)
          true (Outcome.is_weak o))

let test_stide_subset_of_markov () =
  let r = Experiment.relation (map "stide") (map "markov") in
  Alcotest.(check bool) "subset" true r.Experiment.left_subset_of_right;
  Alcotest.(check int) "stide adds nothing" 0 r.Experiment.left_only

let test_lnb_adds_nothing_to_stide () =
  (* The paper: combining Stide and L&B affords no detection advantage. *)
  let stide = Coverage.of_map (map "stide") in
  let lnb = Coverage.of_map (map "lnb") in
  Alcotest.(check int) "no gain" 0 (Coverage.gain ~base:stide ~added:lnb)

let test_summaries () =
  let s = Experiment.summary (map "stide") in
  let cells = Performance_map.cell_count (map "stide") in
  Alcotest.(check int) "partition of cells" cells
    (s.Experiment.capable + s.Experiment.weak + s.Experiment.blind);
  Alcotest.(check string) "name" "stide" s.Experiment.detector

let test_pairwise_relations_count () =
  let rels = Experiment.pairwise_relations (Lazy.force maps) in
  Alcotest.(check int) "4 choose 2" 6 (List.length rels)

let test_suppressor_experiment () =
  let suite = tiny_suite () in
  let r =
    Deployment.suppressor_experiment suite ~window:8 ~anomaly_size:5
      ~deploy_len:15_000 ~seed:123
  in
  let find name =
    List.find (fun (d : Deployment.detector_report) -> d.Deployment.name = name)
      r.Deployment.detectors
  in
  let markov = find "markov" and stide = find "stide" in
  Alcotest.(check bool) "markov noisier than stide" true
    (markov.Deployment.false_alarms.False_alarm.alarms
    > stide.Deployment.false_alarms.False_alarm.alarms);
  Alcotest.(check bool) "markov hits" true markov.Deployment.hit;
  Alcotest.(check bool) "stide hits" true stide.Deployment.hit;
  Alcotest.(check bool) "ensemble keeps the hit" true r.Deployment.ensemble_hit;
  let s = r.Deployment.suppression in
  Alcotest.(check int) "partition"
    s.Ensemble.primary_alarms
    (s.Ensemble.corroborated + s.Ensemble.suppressed);
  Alcotest.(check bool) "most markov alarms suppressed" true
    (s.Ensemble.suppressed > s.Ensemble.corroborated)

let test_lnb_threshold_experiment () =
  let suite = tiny_suite () in
  let deploy = Deployment.deployment_stream suite ~len:15_000 ~seed:321 in
  let fa_training =
    Seqdiv_stream.Trace.sub suite.Suite.training ~pos:0 ~len:10_000
  in
  let points =
    Deployment.lnb_threshold_experiment suite ~anomaly_size:5
      ~deploy_trace:deploy ~fa_training
  in
  List.iter
    (fun (p : Deployment.lnb_threshold_point) ->
      Alcotest.(check bool)
        (Printf.sprintf "hit iff DW >= AS (DW=%d)" p.Deployment.window)
        (p.Deployment.window >= 5) p.Deployment.hit;
      check_float "threshold = 2/(DW+1)" ~epsilon:1e-9
        (2.0 /. float_of_int (p.Deployment.window + 1))
        p.Deployment.score_threshold)
    points;
  (* False alarms grow with the window in the undertrained regime. *)
  let first = List.hd points and last = List.nth points (List.length points - 1) in
  Alcotest.(check bool)
    (Printf.sprintf "fa grows (%.5f -> %.5f)" first.Deployment.false_alarm_rate
       last.Deployment.false_alarm_rate)
    true
    (last.Deployment.false_alarm_rate > first.Deployment.false_alarm_rate)

let test_lfc_ablation () =
  let suite = tiny_suite () in
  let deploy = Deployment.deployment_stream suite ~len:15_000 ~seed:55 in
  let fa_training =
    Seqdiv_stream.Trace.sub suite.Suite.training ~pos:0 ~len:8_000
  in
  let test = Suite.stream suite ~anomaly_size:4 ~window:6 in
  let points =
    Ablation.lfc_experiment ~training:fa_training
      ~injection:test.Suite.injection ~deploy ~window:6
      ~settings:[ (20, 1); (20, 3) ] ()
  in
  List.iter
    (fun (p : Ablation.lfc_point) ->
      Alcotest.(check bool) "raw hit" true p.Ablation.raw_hit)
    points;
  (* A demanding min-count suppresses isolated false alarms. *)
  match points with
  | [ lenient; strict ] ->
      Alcotest.(check bool) "strict LFC reduces FAs" true
        (strict.Ablation.lfc_false_alarms <= lenient.Ablation.lfc_false_alarms)
  | _ -> Alcotest.fail "expected two points"

let test_window_tradeoff () =
  let suite = tiny_suite () in
  let deploy = Deployment.deployment_stream suite ~len:15_000 ~seed:77 in
  let fa_training =
    Seqdiv_stream.Trace.sub suite.Suite.training ~pos:0 ~len:8_000
  in
  let points = Ablation.window_tradeoff suite ~fa_training ~deploy in
  (* Coverage grows exactly with the diagonal law: window w covers the
     anomaly sizes <= w. *)
  List.iter
    (fun (p : Ablation.window_point) ->
      let sizes = Suite.anomaly_sizes suite in
      let expected =
        float_of_int (List.length (List.filter (fun s -> s <= p.Ablation.window) sizes))
        /. float_of_int (List.length sizes)
      in
      check_float
        (Printf.sprintf "coverage at DW=%d" p.Ablation.window)
        ~epsilon:1e-9 expected p.Ablation.coverage)
    points;
  (* False alarms trend upward with the window. *)
  let first = List.hd points
  and last = List.nth points (List.length points - 1) in
  Alcotest.(check bool) "fa grows with window" true
    (last.Ablation.false_alarm_rate > first.Ablation.false_alarm_rate)

let test_seed_robustness () =
  let base =
    { (Suite.scaled_params ~train_len:30_000 ~background_len:1_500) with
      Suite.dw_max = 6;
    }
  in
  let points = Ablation.seed_robustness ~base ~seeds:[ 3; 11 ] () in
  List.iter
    (fun (p : Ablation.seed_point) ->
      Alcotest.(check bool)
        (Printf.sprintf "stide diagonal at seed %d" p.Ablation.seed)
        true p.Ablation.stide_diagonal;
      Alcotest.(check bool)
        (Printf.sprintf "markov everywhere at seed %d" p.Ablation.seed)
        true p.Ablation.markov_everywhere;
      Alcotest.(check bool)
        (Printf.sprintf "lnb nowhere at seed %d" p.Ablation.seed)
        true p.Ablation.lnb_nowhere)
    points

let test_deviation_sweep () =
  let base =
    { (Suite.scaled_params ~train_len:30_000 ~background_len:1_500) with
      Suite.dw_max = 6;
    }
  in
  let points =
    Ablation.deviation_sweep ~base ~deviations:[ 0.00002; 0.0025; 0.2 ] ()
  in
  (match points with
  | [ too_low; paper; too_high ] ->
      Alcotest.(check bool) "too-low deviation fails" false
        too_low.Ablation.suite_builds;
      Alcotest.(check bool) "paper deviation builds" true
        paper.Ablation.suite_builds;
      Alcotest.(check bool) "paper deviation keeps the diagonal" true
        paper.Ablation.stide_diagonal_held;
      Alcotest.(check bool) "too-high deviation fails" false
        too_high.Ablation.suite_builds;
      Alcotest.(check bool) "constructible sizes shrink at extremes" true
        (too_low.Ablation.sizes_constructible
         < paper.Ablation.sizes_constructible)
  | _ -> Alcotest.fail "expected three points")

let test_rare_threshold_ablation () =
  let suite = tiny_suite () in
  let points =
    Ablation.rare_threshold_sweep suite ~thresholds:[ 0.00001; 0.005; 0.2 ]
  in
  (match points with
  | [ too_low; paper; too_high ] ->
      (* Below the deviation frequency nothing is rare; at the paper's
         threshold the deviant 2-grams are; far above it even the cycle
         2-grams become "rare". *)
      Alcotest.(check int) "nothing rare at 0.001%" 0
        too_low.Ablation.rare_twograms;
      Alcotest.(check bool) "deviants rare at 0.5%" true
        (paper.Ablation.rare_twograms > 0);
      Alcotest.(check bool) "cycle engulfed at 20%" true
        (too_high.Ablation.rare_twograms > paper.Ablation.rare_twograms)
  | _ -> Alcotest.fail "expected three points");
  List.iter
    (fun (p : Ablation.rare_point) ->
      Alcotest.(check int) "2-gram partition"
        (p.Ablation.rare_twograms + p.Ablation.common_twograms)
        (Seqdiv_stream.Seq_trie.distinct suite.Suite.index 2))
    points

let () =
  Alcotest.run "integration"
    [
      ( "maps",
        [
          Alcotest.test_case "stide diagonal (fig 5)" `Slow test_stide_diagonal;
          Alcotest.test_case "markov everywhere (fig 4)" `Slow test_markov_everywhere;
          Alcotest.test_case "nn mimics markov (fig 6)" `Slow test_nn_mimics_markov;
          Alcotest.test_case "lnb never capable (fig 3)" `Slow test_lnb_never_capable;
          Alcotest.test_case "stide subset of markov" `Slow test_stide_subset_of_markov;
          Alcotest.test_case "lnb adds nothing" `Slow test_lnb_adds_nothing_to_stide;
          Alcotest.test_case "summaries partition" `Slow test_summaries;
          Alcotest.test_case "pairwise relations" `Slow test_pairwise_relations_count;
        ] );
      ( "deployment",
        [
          Alcotest.test_case "suppressor (T2)" `Slow test_suppressor_experiment;
          Alcotest.test_case "lnb threshold (T3)" `Slow test_lnb_threshold_experiment;
          Alcotest.test_case "lfc ablation (A1)" `Slow test_lfc_ablation;
          Alcotest.test_case "window tradeoff (A6)" `Slow test_window_tradeoff;
          Alcotest.test_case "seed robustness (E3)" `Slow test_seed_robustness;
          Alcotest.test_case "rare threshold (A4)" `Slow test_rare_threshold_ablation;
          Alcotest.test_case "deviation envelope (A7)" `Slow test_deviation_sweep;
        ] );
    ]
