open Seqdiv_stream
open Seqdiv_core
open Seqdiv_detectors
open Seqdiv_synth

let figure2 suite ~window ~anomaly_size =
  let test = Suite.stream suite ~anomaly_size ~window in
  let inj = test.Suite.injection in
  let trace = inj.Injector.trace in
  let pos = inj.Injector.position in
  let size = Array.length inj.Injector.anomaly in
  let lo, hi = Injector.incident_span ~position:pos ~size ~width:window in
  let show_from = Stdlib.max 0 (pos - window - 2) in
  let show_to =
    Stdlib.min (Trace.length trace - 1) (pos + size + window + 1)
  in
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf
       "Figure 2 — boundary sequences and incident span (DW=%d, AS=%d)\n"
       window anomaly_size);
  Buffer.add_string buf "  stream: ";
  for i = show_from to show_to do
    Buffer.add_string buf (string_of_int (Trace.get trace i));
    Buffer.add_char buf ' '
  done;
  Buffer.add_char buf '\n';
  Buffer.add_string buf "          ";
  for i = show_from to show_to do
    let c =
      if i >= pos && i < pos + size then 'F'
      else if i >= pos - window + 1 && i < pos + size + window - 1 then '+'
      else ' '
    in
    Buffer.add_char buf c;
    Buffer.add_char buf ' '
  done;
  Buffer.add_char buf '\n';
  Buffer.add_string buf
    (Printf.sprintf
       "  F: injected foreign sequence; +: background elements involved in \
        boundary sequences\n\
       \  incident span: window starts %d..%d (%d windows of size %d); \
        boundary sequences: 2(DW-1) = %d\n"
       lo hi (hi - lo + 1) window
       (2 * (window - 1)));
  Buffer.contents buf

let figure7 () =
  let names = [| "cd"; "<1>"; "ls"; "laf"; "tar" |] in
  let normal = [| 0; 1; 2; 3; 4 |] in
  let foreign = [| 0; 1; 2; 3; 0 |] (* final element differs: "cd" *) in
  let pp_seq s =
    s |> Array.to_list |> List.map (fun i -> names.(i)) |> String.concat " "
  in
  let sim_id = Lane_brodley.similarity normal normal in
  let sim_f = Lane_brodley.similarity normal foreign in
  Printf.sprintf
    "Figure 7 — L&B similarity between two size-5 sequences\n\
    \  normal  vs normal : %-22s score = %d (maximum, DW(DW+1)/2 = %d)\n\
    \  normal  vs foreign: %-22s score = %d (one terminal mismatch)\n\
    \  the dip from %d to %d is all that marks the foreign sequence; the \
     maximally\n\
    \  anomalous value for this detector is 0, so the response stays close \
     to normal.\n"
    (pp_seq normal) sim_id
    (Lane_brodley.max_similarity 5)
    (pp_seq foreign) sim_f sim_id sim_f

let figure_map map = Ascii_map.render map

let table1 maps =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "T1 — coverage summary (cells are AS x DW pairs)\n";
  let summaries = List.map Experiment.summary maps in
  (* The failed column appears only on a degraded (partial) run, so
     healthy outputs stay byte-identical with or without supervision. *)
  let any_failed = List.exists (fun s -> s.Experiment.failed > 0) summaries in
  let columns =
    [ "detector"; "capable"; "weak"; "blind" ]
    @ (if any_failed then [ "failed" ] else [])
    @ [ "coverage" ]
  in
  let summary_table = Table.make ~columns in
  List.iter
    (fun s ->
      Table.add_row summary_table
        ([
           s.Experiment.detector;
           string_of_int s.Experiment.capable;
           string_of_int s.Experiment.weak;
           string_of_int s.Experiment.blind;
         ]
        @ (if any_failed then [ string_of_int s.Experiment.failed ] else [])
        @ [ Printf.sprintf "%.0f%%" (100.0 *. s.Experiment.capable_fraction) ]))
    summaries;
  Buffer.add_string buf (Table.to_string summary_table);
  Buffer.add_string buf "\nPairwise coverage relations:\n";
  let rel_table =
    Table.make
      ~columns:[ "pair"; "left-only"; "both"; "right-only"; "jaccard"; "relation" ]
  in
  List.iter
    (fun r ->
      let relation_text =
        if r.Experiment.left_subset_of_right && r.Experiment.right_subset_of_left
        then "equal"
        else if r.Experiment.left_subset_of_right then
          r.Experiment.left ^ " subset of " ^ r.Experiment.right
        else if r.Experiment.right_subset_of_left then
          r.Experiment.right ^ " subset of " ^ r.Experiment.left
        else "incomparable"
      in
      Table.add_row rel_table
        [
          r.Experiment.left ^ " vs " ^ r.Experiment.right;
          string_of_int r.Experiment.left_only;
          string_of_int r.Experiment.both;
          string_of_int r.Experiment.right_only;
          Printf.sprintf "%.2f" r.Experiment.jaccard;
          relation_text;
        ])
    (Experiment.pairwise_relations maps);
  Buffer.add_string buf (Table.to_string rel_table);
  Buffer.contents buf

let table2 (r : Deployment.suppressor_report) =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf
       "T2 — false alarms and the Stide-suppressor ensemble (DW=%d, AS=%d)\n"
       r.Deployment.window r.Deployment.anomaly_size);
  let t =
    Table.make ~columns:[ "detector"; "windows"; "false alarms"; "FA rate"; "hit" ]
  in
  List.iter
    (fun (d : Deployment.detector_report) ->
      let fa = d.Deployment.false_alarms in
      Table.add_row t
        [
          d.Deployment.name;
          string_of_int fa.False_alarm.windows;
          string_of_int fa.False_alarm.alarms;
          Printf.sprintf "%.5f" fa.False_alarm.rate;
          (if d.Deployment.hit then "yes" else "no");
        ])
    r.Deployment.detectors;
  Buffer.add_string buf (Table.to_string t);
  let s = r.Deployment.suppression in
  Buffer.add_string buf
    (Printf.sprintf
       "\nMarkov alarms on the deployment stream: %d; corroborated by Stide: \
        %d; suppressed: %d\n\
        Conjunctive ensemble (markov AND stide) retains the injected-anomaly \
        hit: %s\n"
       s.Ensemble.primary_alarms s.Ensemble.corroborated s.Ensemble.suppressed
       (if r.Deployment.ensemble_hit then "yes" else "no"));
  Buffer.contents buf

let table3 points =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    "T3 — lowering the L&B threshold to the next-most-normal value\n";
  let t =
    Table.make ~columns:[ "DW"; "score threshold"; "MFS caught"; "FA rate" ]
  in
  List.iter
    (fun (p : Deployment.lnb_threshold_point) ->
      Table.add_row t
        [
          string_of_int p.Deployment.window;
          Printf.sprintf "%.4f" p.Deployment.score_threshold;
          (if p.Deployment.hit then "yes" else "no");
          Printf.sprintf "%.5f" p.Deployment.false_alarm_rate;
        ])
    points;
  Buffer.add_string buf (Table.to_string t);
  Buffer.contents buf

let ablation1 points =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "A1 — Stide with and without the locality frame count\n";
  let t =
    Table.make
      ~columns:
        [ "frame"; "min count"; "hit raw"; "hit LFC"; "FAs raw"; "FAs LFC" ]
  in
  List.iter
    (fun (p : Ablation.lfc_point) ->
      Table.add_row t
        [
          string_of_int p.Ablation.frame;
          string_of_int p.Ablation.min_count;
          (if p.Ablation.raw_hit then "yes" else "no");
          (if p.Ablation.lfc_hit then "yes" else "no");
          string_of_int p.Ablation.raw_false_alarms;
          string_of_int p.Ablation.lfc_false_alarms;
        ])
    points;
  Buffer.add_string buf (Table.to_string t);
  Buffer.contents buf

let ablation2 points =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "A2 — neural-network hyper-parameter sensitivity\n";
  let t =
    Table.make
      ~columns:
        [ "hidden"; "epochs"; "lr"; "momentum"; "loss"; "capable"; "weak"; "min span resp" ]
  in
  List.iter
    (fun (p : Ablation.nn_point) ->
      let pr = p.Ablation.params in
      Table.add_row t
        [
          string_of_int pr.Neural.hidden;
          string_of_int pr.Neural.epochs;
          Printf.sprintf "%.2f" pr.Neural.learning_rate;
          Printf.sprintf "%.2f" pr.Neural.momentum;
          Printf.sprintf "%.4f" p.Ablation.loss;
          string_of_int p.Ablation.capable;
          string_of_int p.Ablation.weak;
          Printf.sprintf "%.4f" p.Ablation.min_span_response;
        ])
    points;
  Buffer.add_string buf (Table.to_string t);
  Buffer.contents buf

let ablation3 points =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "A3 — alphabet-size invariance of the map shapes\n";
  let t =
    Table.make
      ~columns:[ "alphabet"; "stide = diagonal"; "markov = everywhere" ]
  in
  List.iter
    (fun (p : Ablation.alphabet_point) ->
      Table.add_row t
        [
          string_of_int p.Ablation.alphabet_size;
          (if p.Ablation.stide_diagonal then "yes" else "no");
          (if p.Ablation.markov_everywhere then "yes" else "no");
        ])
    points;
  Buffer.add_string buf (Table.to_string t);
  Buffer.contents buf

let extension1 ~paper_maps ~extension_maps =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    "E1 — extension detectors (t-stide and HMM, Warrender et al. 1999)\n\n";
  List.iter
    (fun m ->
      Buffer.add_string buf (Ascii_map.render m);
      Buffer.add_char buf '\n')
    extension_maps;
  let t =
    Table.make ~columns:[ "pair"; "jaccard"; "relation" ]
  in
  List.iter
    (fun ext ->
      List.iter
        (fun paper_map ->
          let r = Experiment.relation ext paper_map in
          let relation_text =
            if r.Experiment.left_subset_of_right && r.Experiment.right_subset_of_left
            then "equal coverage"
            else if r.Experiment.left_subset_of_right then "subset"
            else if r.Experiment.right_subset_of_left then "superset"
            else "incomparable"
          in
          Table.add_row t
            [
              r.Experiment.left ^ " vs " ^ r.Experiment.right;
              Printf.sprintf "%.2f" r.Experiment.jaccard;
              relation_text;
            ])
        paper_maps)
    extension_maps;
  Buffer.add_string buf (Table.to_string t);
  Buffer.contents buf

let extension2 maps =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    "E2 — rare-sequence anomalies (present in training, below the 0.5% \
     threshold)\n";
  let t =
    Table.make ~columns:[ "detector"; "capable"; "weak"; "blind"; "verdict" ]
  in
  List.iter
    (fun m ->
      let s = Experiment.summary m in
      let cells = Performance_map.cell_count m in
      let verdict =
        if s.Experiment.capable = cells then "rare-sensitive"
        else if s.Experiment.blind = cells then "blind to rarity"
        else "mixed"
      in
      Table.add_row t
        [
          s.Experiment.detector;
          string_of_int s.Experiment.capable;
          string_of_int s.Experiment.weak;
          string_of_int s.Experiment.blind;
          verdict;
        ])
    maps;
  Buffer.add_string buf (Table.to_string t);
  Buffer.add_string buf
    "Stide and L&B perceive a rare-but-seen sequence as completely normal \
     at every\ncell — the Section 5.1 dichotomy, charted.\n";
  Buffer.contents buf

let ablation6 points =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    "A6 — window selection: Stide coverage vs false alarms (\"Why 6?\")\n";
  let t =
    Table.make ~columns:[ "DW"; "anomaly sizes covered"; "FA rate (undertrained)" ]
  in
  List.iter
    (fun (p : Ablation.window_point) ->
      Table.add_row t
        [
          string_of_int p.Ablation.window;
          Printf.sprintf "%.0f%%" (100.0 *. p.Ablation.coverage);
          Printf.sprintf "%.5f" p.Ablation.false_alarm_rate;
        ])
    points;
  Buffer.add_string buf (Table.to_string t);
  Buffer.add_string buf
    "Growing the window buys coverage of longer anomalies but pays in false \
     alarms\nonce training no longer exhausts benign windows — the window \
     should be sized\nto the longest anomaly that matters, and no larger.\n";
  Buffer.contents buf

let extension3 points =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "E3 — map-shape invariance across seeds\n";
  let t =
    Table.make
      ~columns:[ "seed"; "stide = diagonal"; "markov = everywhere"; "lnb = nowhere" ]
  in
  List.iter
    (fun (p : Ablation.seed_point) ->
      let yn b = if b then "yes" else "no" in
      Table.add_row t
        [
          string_of_int p.Ablation.seed;
          yn p.Ablation.stide_diagonal;
          yn p.Ablation.markov_everywhere;
          yn p.Ablation.lnb_nowhere;
        ])
    points;
  Buffer.add_string buf (Table.to_string t);
  Buffer.contents buf

let ablation7 points =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    "A7 — synthesis operating envelope: deviation-rate sweep\n";
  let t =
    Table.make
      ~columns:
        [ "deviation"; "MFS sizes constructible"; "suite builds"; "stide diagonal" ]
  in
  List.iter
    (fun (p : Ablation.deviation_point) ->
      Table.add_row t
        [
          Printf.sprintf "%g" p.Ablation.deviation;
          string_of_int p.Ablation.sizes_constructible;
          (if p.Ablation.suite_builds then "yes" else "no");
          (if p.Ablation.suite_builds then
             if p.Ablation.stide_diagonal_held then "yes" else "no"
           else "-");
        ])
    points;
  Buffer.add_string buf (Table.to_string t);
  Buffer.add_string buf
    "Too few deviations and the anomalies' sub-sequences are missing from \
     training;\ntoo many and the \"foreign\" sequences start occurring — the \
     band in between is\nwhere the paper's construction lives (DESIGN.md \
     section 5).\n";
  Buffer.contents buf

let ablation8 points =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    "A8 — Laplace smoothing vs the maximal-response guarantee (Markov)\n";
  let t =
    Table.make ~columns:[ "alpha"; "capable"; "weak"; "max span response" ]
  in
  List.iter
    (fun (p : Ablation.smoothing_point) ->
      Table.add_row t
        [
          Printf.sprintf "%g" p.Ablation.alpha;
          string_of_int p.Ablation.capable;
          string_of_int p.Ablation.weak;
          Printf.sprintf "%.5f" p.Ablation.max_span_response;
        ])
    points;
  Buffer.add_string buf (Table.to_string t);
  Buffer.add_string buf
    "Smoothing caps every estimated probability away from 0, so the \
     threshold-of-1\ncomparison of the paper presumes unsmoothed \
     maximum-likelihood estimates.\n";
  Buffer.contents buf

let extension4 rows =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "E4 — per-session classification\n";
  let t =
    Table.make
      ~columns:[ "detector"; "TP"; "FN"; "FP"; "TN"; "detection"; "session FA" ]
  in
  List.iter
    (fun (name, c) ->
      Table.add_row t
        [
          name;
          string_of_int c.Session_eval.true_positives;
          string_of_int c.Session_eval.false_negatives;
          string_of_int c.Session_eval.false_positives;
          string_of_int c.Session_eval.true_negatives;
          Printf.sprintf "%.2f" (Session_eval.detection_rate c);
          Printf.sprintf "%.2f" (Session_eval.false_alarm_rate c);
        ])
    rows;
  Buffer.add_string buf (Table.to_string t);
  Buffer.contents buf

let ablation4 points =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "A4 — sensitivity of the rare-sequence threshold\n";
  let t =
    Table.make
      ~columns:
        [ "threshold"; "rare 2-grams"; "common 2-grams"; "rare-composed MFS(5)" ]
  in
  List.iter
    (fun (p : Ablation.rare_point) ->
      Table.add_row t
        [
          Printf.sprintf "%g" p.Ablation.threshold;
          string_of_int p.Ablation.rare_twograms;
          string_of_int p.Ablation.common_twograms;
          string_of_int p.Ablation.mfs_candidates;
        ])
    points;
  Buffer.add_string buf (Table.to_string t);
  Buffer.contents buf
