open Seqdiv_stream
open Seqdiv_synth
open Seqdiv_core
open Seqdiv_detectors
open Seqdiv_test_support

let corpus () =
  let suite = tiny_suite () in
  let rng = Seqdiv_util.Prng.create ~seed:41 in
  let normal = Session_workload.normal suite rng ~sessions:40 ~length:300 in
  let anomalous =
    Session_workload.anomalous suite ~sessions:20 ~length:300 ~anomaly_size:4
      ~window:6
  in
  (suite, normal, anomalous)

let test_workload_shapes () =
  let _, normal, anomalous = corpus () in
  Alcotest.(check int) "normal sessions" 40 (Sessions.count normal);
  Alcotest.(check int) "anomalous sessions" 20 (Sessions.count anomalous);
  List.iter
    (fun tr -> Alcotest.(check int) "length" 304 (Trace.length tr))
    (Sessions.traces anomalous)

let test_anomalous_sessions_contain_foreign_content () =
  let suite, _, anomalous = corpus () in
  List.iter
    (fun session ->
      let found = ref false in
      Trace.iter_windows session ~width:6 (fun pos ->
          if
            not
              (Seqdiv_stream.Seq_trie.mem_at suite.Suite.index
                 (Trace.raw session) ~pos ~len:6)
          then found := true);
      Alcotest.(check bool) "has foreign window" true !found)
    (Sessions.traces anomalous)

let test_normal_sessions_contain_no_foreign_content () =
  let suite, normal, _ = corpus () in
  List.iter
    (fun session ->
      Trace.iter_windows session ~width:2 (fun pos ->
          if
            not
              (Seqdiv_stream.Seq_trie.mem_at suite.Suite.index
                 (Trace.raw session) ~pos ~len:2)
          then Alcotest.fail "normal session has a foreign 2-gram"))
    (Sessions.traces normal)

let test_confusion_rates () =
  let c =
    {
      Session_eval.true_positives = 8;
      false_negatives = 2;
      false_positives = 1;
      true_negatives = 9;
    }
  in
  check_float "detection" ~epsilon:1e-9 0.8 (Session_eval.detection_rate c);
  check_float "false alarm" ~epsilon:1e-9 0.1 (Session_eval.false_alarm_rate c)

let test_confusion_rates_degenerate () =
  let c =
    {
      Session_eval.true_positives = 0;
      false_negatives = 0;
      false_positives = 0;
      true_negatives = 0;
    }
  in
  check_float "no anomalous" ~epsilon:0.0 0.0 (Session_eval.detection_rate c);
  check_float "no normal" ~epsilon:0.0 0.0 (Session_eval.false_alarm_rate c)

let test_short_session_never_trips () =
  let suite, _, _ = corpus () in
  let stide =
    Trained.train (Registry.find_exn "stide") ~window:6 suite.Suite.training
  in
  Alcotest.(check bool) "short session" false
    (Session_eval.session_anomalous stide ~threshold:1.0 (trace8 [ 0; 1 ]))

let test_stide_session_classification () =
  let suite, normal, anomalous = corpus () in
  let stide =
    Trained.train (Registry.find_exn "stide") ~window:6 suite.Suite.training
  in
  let c = Session_eval.evaluate stide ~normal ~anomalous () in
  (* Window 6 > anomaly size 4: every attack session contains a foreign
     window; Stide catches all and raises no session-level false alarms
     on this training scale. *)
  check_float "perfect detection" ~epsilon:1e-9 1.0
    (Session_eval.detection_rate c);
  Alcotest.(check bool)
    (Printf.sprintf "few false positives (%d)" c.Session_eval.false_positives)
    true
    (Session_eval.false_alarm_rate c < 0.2)

let test_markov_detects_but_alarms_more () =
  let suite, normal, anomalous = corpus () in
  let train name =
    Trained.train (Registry.find_exn name) ~window:6 suite.Suite.training
  in
  let markov = Session_eval.evaluate (train "markov") ~normal ~anomalous () in
  let stide = Session_eval.evaluate (train "stide") ~normal ~anomalous () in
  check_float "markov catches all attacks" ~epsilon:1e-9 1.0
    (Session_eval.detection_rate markov);
  Alcotest.(check bool)
    (Printf.sprintf "markov session FPs (%d) >= stide's (%d)"
       markov.Session_eval.false_positives stide.Session_eval.false_positives)
    true
    (markov.Session_eval.false_positives >= stide.Session_eval.false_positives)

let test_partition () =
  let _, normal, anomalous = corpus () in
  let suite, _, _ = corpus () in
  let stide =
    Trained.train (Registry.find_exn "stide") ~window:6 suite.Suite.training
  in
  let c = Session_eval.evaluate stide ~normal ~anomalous () in
  Alcotest.(check int) "anomalous partition" (Sessions.count anomalous)
    (c.Session_eval.true_positives + c.Session_eval.false_negatives);
  Alcotest.(check int) "normal partition" (Sessions.count normal)
    (c.Session_eval.false_positives + c.Session_eval.true_negatives)

let () =
  Alcotest.run "session_eval"
    [
      ( "workload",
        [
          Alcotest.test_case "shapes" `Quick test_workload_shapes;
          Alcotest.test_case "anomalous contain foreign" `Quick
            test_anomalous_sessions_contain_foreign_content;
          Alcotest.test_case "normal contain no foreign" `Quick
            test_normal_sessions_contain_no_foreign_content;
        ] );
      ( "session_eval",
        [
          Alcotest.test_case "rates" `Quick test_confusion_rates;
          Alcotest.test_case "degenerate rates" `Quick test_confusion_rates_degenerate;
          Alcotest.test_case "short session" `Quick test_short_session_never_trips;
          Alcotest.test_case "stide classification" `Quick
            test_stide_session_classification;
          Alcotest.test_case "markov vs stide" `Quick test_markov_detects_but_alarms_more;
          Alcotest.test_case "partition" `Quick test_partition;
        ] );
    ]
