open Seqdiv_util
open Seqdiv_stream
open Seqdiv_detectors
open Seqdiv_synth

type lfc_point = {
  frame : int;
  min_count : int;
  raw_hit : bool;
  lfc_hit : bool;
  raw_false_alarms : int;
  lfc_false_alarms : int;
}

let lfc_experiment ?engine ~training ~(injection : Injector.injection) ~deploy
    ~window ~settings () =
  let stide = Registry.find_exn "stide" in
  let trained = Engine.train (Engine.default engine) stide ~window training in
  let threshold = Trained.alarm_threshold trained in
  let span = Scoring.incident_response trained injection in
  let deploy_response = Trained.score trained deploy in
  let raw_hit = Response.max_score span >= threshold in
  let raw_false_alarms =
    Response.count_over deploy_response ~threshold
  in
  List.map
    (fun (frame, min_count) ->
      let lfc_hit =
        Lfc.alarm_count span ~frame ~min_count ~threshold > 0
      in
      let lfc_false_alarms =
        Lfc.alarm_count deploy_response ~frame ~min_count ~threshold
      in
      { frame; min_count; raw_hit; lfc_hit; raw_false_alarms; lfc_false_alarms })
    settings

type nn_point = {
  params : Neural.params;
  loss : float;
  capable : int;
  weak : int;
  min_span_response : float;
}

let nn_sensitivity ?engine suite ~window ~params =
  (* Each parameter point trains its own deterministically-seeded
     network — pure, so the points run on the engine's pool. *)
  Pool.map
    (Engine.pool (Engine.default engine))
    (fun p ->
      let model = Neural.train_with p ~window suite.Suite.training in
      let loss = Neural.training_loss model in
      let outcomes =
        List.map
          (fun anomaly_size ->
            let test = Suite.stream suite ~anomaly_size ~window in
            let inj = test.Suite.injection in
            let lo, hi =
              Injector.incident_span ~position:inj.Injector.position
                ~size:(Array.length inj.Injector.anomaly) ~width:window
            in
            let span = Neural.score_range model inj.Injector.trace ~lo ~hi in
            Response.max_score span)
          (Suite.anomaly_sizes suite)
      in
      let capable =
        List.length
          (List.filter (fun m -> m >= 1.0 -. Neural.maximal_epsilon) outcomes)
      in
      let weak =
        List.length
          (List.filter
             (fun m -> m > 0.0 && m < 1.0 -. Neural.maximal_epsilon)
             outcomes)
      in
      let min_span_response = List.fold_left Float.min 1.0 outcomes in
      { params = p; loss; capable; weak; min_span_response })
    params

type alphabet_point = {
  alphabet_size : int;
  stide_diagonal : bool;
  markov_everywhere : bool;
}

let alphabet_invariance ?engine ~(base : Suite.params) ~sizes () =
  List.map
    (fun alphabet_size ->
      let suite = Suite.build { base with Suite.alphabet_size } in
      let stide_map =
        Experiment.performance_map ?engine suite (Registry.find_exn "stide")
      in
      let markov_map =
        Experiment.performance_map ?engine suite (Registry.find_exn "markov")
      in
      let stide_diagonal =
        Performance_map.fold stide_map ~init:true
          ~f:(fun acc ~anomaly_size ~window o ->
            acc && Outcome.is_capable o = (window >= anomaly_size))
      in
      let markov_everywhere =
        Performance_map.fold markov_map ~init:true
          ~f:(fun acc ~anomaly_size:_ ~window:_ o ->
            acc && Outcome.is_capable o)
      in
      { alphabet_size; stide_diagonal; markov_everywhere })
    sizes

type rare_point = {
  threshold : float;
  rare_twograms : int;
  common_twograms : int;
  mfs_candidates : int;
}

type window_point = {
  window : int;
  coverage : float;
  false_alarm_rate : float;
}

let window_tradeoff ?engine suite ~fa_training ~deploy =
  let e = Engine.default engine in
  let stide = Registry.find_exn "stide" in
  let anomaly_sizes = Suite.anomaly_sizes suite in
  let n_sizes = float_of_int (List.length anomaly_sizes) in
  let windows = Suite.windows suite in
  (* Train phase for both model families, then pure per-window scoring
     on the pool. *)
  let trained =
    Engine.train_batch e
      (List.map (fun w -> (stide, w, suite.Suite.training)) windows)
  in
  let fa_models =
    Engine.train_batch e (List.map (fun w -> (stide, w, fa_training)) windows)
  in
  Pool.map (Engine.pool e)
    (fun (window, trained, fa_model) ->
      let detected =
        List.filter
          (fun anomaly_size ->
            let s = Suite.stream suite ~anomaly_size ~window in
            Outcome.is_capable (Scoring.outcome trained s.Suite.injection))
          anomaly_sizes
      in
      let fa = False_alarm.on_clean fa_model deploy in
      {
        window;
        coverage = float_of_int (List.length detected) /. n_sizes;
        false_alarm_rate = fa.False_alarm.rate;
      })
    (List.map2
       (fun (w, t) fa -> (w, t, fa))
       (List.combine windows trained) fa_models)

type smoothing_point = {
  alpha : float;
  capable : int;
  weak : int;
  max_span_response : float;
}

let smoothing_sweep suite ~window ~alphas =
  let base = Markov.train ~window suite.Suite.training in
  List.map
    (fun alpha ->
      let model = Markov.with_smoothing base ~alpha in
      let maxima =
        List.map
          (fun anomaly_size ->
            let test = Suite.stream suite ~anomaly_size ~window in
            let inj = test.Suite.injection in
            let lo, hi =
              Injector.incident_span ~position:inj.Injector.position
                ~size:(Array.length inj.Injector.anomaly) ~width:window
            in
            Response.max_score (Markov.score_range model inj.Injector.trace ~lo ~hi))
          (Suite.anomaly_sizes suite)
      in
      let capable =
        List.length
          (List.filter (fun m -> m >= 1.0 -. Markov.maximal_epsilon) maxima)
      in
      let weak =
        List.length
          (List.filter
             (fun m -> m > 0.0 && m < 1.0 -. Markov.maximal_epsilon)
             maxima)
      in
      {
        alpha;
        capable;
        weak;
        max_span_response = List.fold_left Float.max 0.0 maxima;
      })
    alphas

type deviation_point = {
  deviation : float;
  sizes_constructible : int;
  suite_builds : bool;
  stide_diagonal_held : bool;
}

let deviation_sweep ?engine ~(base : Suite.params) ~deviations () =
  List.map
    (fun deviation ->
      let p = { base with Suite.deviation } in
      let alphabet = Alphabet.make p.Suite.alphabet_size in
      let chain = Markov_chain.paper_chain alphabet ~deviation in
      let rng = Seqdiv_util.Prng.create ~seed:p.Suite.seed in
      let training = Generator.training chain rng ~len:p.Suite.train_len in
      let index =
        Seq_trie.of_trace
          ~max_len:(Stdlib.max p.Suite.dw_max (p.Suite.as_max + 1))
          training
      in
      let sizes_constructible =
        List.length
          (List.filter
             (fun size ->
               Mfs.candidates index alphabet ~size
                 ~rare_threshold:p.Suite.rare_threshold
               <> [])
             (List.init
                (p.Suite.as_max - p.Suite.as_min + 1)
                (fun i -> p.Suite.as_min + i)))
      in
      match Suite.build p with
      | suite ->
          let stide_map =
            Experiment.performance_map ?engine suite (Registry.find_exn "stide")
          in
          let stide_diagonal_held =
            Performance_map.fold stide_map ~init:true
              ~f:(fun acc ~anomaly_size ~window o ->
                acc && Outcome.is_capable o = (window >= anomaly_size))
          in
          { deviation; sizes_constructible; suite_builds = true;
            stide_diagonal_held }
      | exception Injector.No_clean_injection _ ->
          { deviation; sizes_constructible; suite_builds = false;
            stide_diagonal_held = false })
    deviations

type seed_point = {
  seed : int;
  stide_diagonal : bool;
  markov_everywhere : bool;
  lnb_nowhere : bool;
}

let seed_robustness ?engine ~(base : Suite.params) ~seeds () =
  List.map
    (fun seed ->
      let suite = Suite.build { base with Suite.seed } in
      let map name =
        Experiment.performance_map ?engine suite (Registry.find_exn name)
      in
      let stide_diagonal =
        Performance_map.fold (map "stide") ~init:true
          ~f:(fun acc ~anomaly_size ~window o ->
            acc && Outcome.is_capable o = (window >= anomaly_size))
      in
      let markov_everywhere =
        Performance_map.fold (map "markov") ~init:true
          ~f:(fun acc ~anomaly_size:_ ~window:_ o -> acc && Outcome.is_capable o)
      in
      let lnb_nowhere =
        Performance_map.capable_cells (map "lnb") = []
      in
      { seed; stide_diagonal; markov_everywhere; lnb_nowhere })
    seeds

let rare_threshold_sweep suite ~thresholds =
  let index = suite.Suite.index in
  let total = float_of_int (Seq_trie.total index 2) in
  List.map
    (fun threshold ->
      let rare_twograms = ref 0 in
      Seq_trie.iter_slice index ~depth:2 (fun _ count ->
          if float_of_int count /. total < threshold then incr rare_twograms);
      let common_twograms = Seq_trie.distinct index 2 - !rare_twograms in
      let mfs_candidates =
        Mfs.candidates index suite.Suite.alphabet ~size:5
          ~rare_threshold:threshold
        |> List.filter (fun c ->
               let rare_at pos =
                 Seq_trie.is_rare_at index ~threshold c ~pos ~len:2
               in
               rare_at 0 && rare_at (Array.length c - 2))
        |> List.length
      in
      { threshold; rare_twograms = !rare_twograms; common_twograms;
        mfs_candidates })
    thresholds
