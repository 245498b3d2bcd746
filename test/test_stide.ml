open Seqdiv_stream
open Seqdiv_detectors
open Seqdiv_test_support

let test_train_builds_db () =
  let model = Stide.train ~window:2 (trace8 [ 0; 1; 2; 0; 1 ]) in
  Alcotest.(check int) "distinct windows" 3
    (Seq_trie.distinct (Stide.trie model) 2);
  Alcotest.(check int) "window recorded" 2 (Stide.window model)

let test_score_membership () =
  let model = Stide.train ~window:2 (trace8 [ 0; 1; 2; 0; 1 ]) in
  (* test trace: 0 1 7 -> windows 01 (known) and 17 (foreign) *)
  let r = Stide.score model (trace8 [ 0; 1; 7 ]) in
  let scores =
    Array.to_list (Array.map (fun i -> i.Response.score) r.Response.items)
  in
  Alcotest.(check (list (float 0.0))) "0 then 1" [ 0.0; 1.0 ] scores

let test_scores_are_binary () =
  let suite = small_suite () in
  let model = Stide.train ~window:6 suite.Seqdiv_synth.Suite.training in
  let test = Seqdiv_synth.Suite.stream suite ~anomaly_size:4 ~window:6 in
  let r = Stide.score model test.Seqdiv_synth.Suite.injection.Seqdiv_synth.Injector.trace in
  Array.iter
    (fun (i : Response.item) ->
      if i.Response.score <> 0.0 && i.Response.score <> 1.0 then
        Alcotest.fail "non-binary stide score")
    r.Response.items

let test_cover_equals_window () =
  let model = Stide.train ~window:4 (trace8 [ 0; 1; 2; 3; 4; 5 ]) in
  let r = Stide.score model (trace8 [ 0; 1; 2; 3; 4 ]) in
  Array.iter
    (fun (i : Response.item) ->
      Alcotest.(check int) "cover" 4 i.Response.cover)
    r.Response.items

let test_score_range_clamps () =
  let model = Stide.train ~window:2 (trace8 [ 0; 1; 2; 3 ]) in
  let r = Stide.score_range model (trace8 [ 0; 1; 2 ]) ~lo:(-5) ~hi:100 in
  Alcotest.(check int) "clamped to valid range" 2 (Response.length r);
  let r2 = Stide.score_range model (trace8 [ 0; 1; 2 ]) ~lo:5 ~hi:2 in
  Alcotest.(check int) "empty range" 0 (Response.length r2)

let test_train_rejects_short_trace () =
  Alcotest.check_raises "short trace"
    (Invalid_argument "Stide.train: trace shorter than window") (fun () ->
      ignore (Stide.train ~window:5 (trace8 [ 0; 1 ])))

let test_of_trie () =
  (* A deeper trie serves a shallower window. *)
  let trie = Seq_trie.of_trace ~max_len:4 (trace8 [ 0; 1; 2; 3 ]) in
  let model = Stide.of_trie trie ~window:3 in
  Alcotest.(check int) "window" 3 (Stide.window model);
  Alcotest.(check bool) "same trie" true (Stide.trie model == trie)

let test_detects_iff_window_spans_anomaly () =
  let suite = small_suite () in
  List.iter
    (fun (anomaly_size, window) ->
      let model = Stide.train ~window suite.Seqdiv_synth.Suite.training in
      let s = Seqdiv_synth.Suite.stream suite ~anomaly_size ~window in
      let inj = s.Seqdiv_synth.Suite.injection in
      let lo, hi =
        Seqdiv_synth.Injector.incident_span
          ~position:inj.Seqdiv_synth.Injector.position ~size:anomaly_size
          ~width:window
      in
      let r = Stide.score_range model inj.Seqdiv_synth.Injector.trace ~lo ~hi in
      let detected = Response.max_score r = 1.0 in
      Alcotest.(check bool)
        (Printf.sprintf "AS=%d DW=%d" anomaly_size window)
        (window >= anomaly_size) detected)
    [ (2, 2); (2, 3); (5, 4); (5, 5); (9, 8); (9, 9); (3, 15) ]

let test_no_false_alarms_on_training_data () =
  let suite = small_suite () in
  let training = suite.Seqdiv_synth.Suite.training in
  let model = Stide.train ~window:8 training in
  let r = Stide.score_range model training ~lo:0 ~hi:5_000 in
  Alcotest.(check int) "trained data is all known" 0
    (Response.count_over r ~threshold:1.0)

let prop_membership_definition =
  (* stide's score is exactly the foreignness indicator. *)
  qcheck ~count:50 "score = [window unseen]"
    QCheck.(
      pair
        (list_of_size Gen.(10 -- 60) (int_bound 7))
        (list_of_size Gen.(3 -- 20) (int_bound 7)))
    (fun (train_l, test_l) ->
      let window = 3 in
      QCheck.assume (List.length train_l >= window);
      QCheck.assume (List.length test_l >= window);
      let train = trace8 train_l and test = trace8 test_l in
      let model = Stide.train ~window train in
      let occurs pos =
        let w = Array.sub (Trace.raw test) pos window in
        let found = ref false in
        Trace.iter_windows train ~width:window (fun p ->
            if Array.sub (Trace.raw train) p window = w then found := true);
        !found
      in
      let r = Stide.score model test in
      Array.for_all
        (fun (i : Response.item) ->
          i.Response.score = if occurs i.Response.start then 0.0 else 1.0)
        r.Response.items)

let () =
  Alcotest.run "stide"
    [
      ( "stide",
        [
          Alcotest.test_case "train builds db" `Quick test_train_builds_db;
          Alcotest.test_case "score membership" `Quick test_score_membership;
          Alcotest.test_case "binary scores" `Quick test_scores_are_binary;
          Alcotest.test_case "cover = window" `Quick test_cover_equals_window;
          Alcotest.test_case "score_range clamps" `Quick test_score_range_clamps;
          Alcotest.test_case "rejects short trace" `Quick test_train_rejects_short_trace;
          Alcotest.test_case "of_trie" `Quick test_of_trie;
          Alcotest.test_case "diagonal detection law" `Quick
            test_detects_iff_window_spans_anomaly;
          Alcotest.test_case "no FAs on training data" `Quick
            test_no_false_alarms_on_training_data;
          prop_membership_definition;
        ] );
    ]
