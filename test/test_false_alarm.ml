open Seqdiv_synth
open Seqdiv_core
open Seqdiv_detectors
open Seqdiv_test_support

let response scores =
  Response.make ~detector:"x" ~window:2
    (Array.of_list
       (List.mapi
          (fun i s -> { Response.start = i; cover = 2; score = s })
          scores))

let test_of_response () =
  let s = False_alarm.of_response (response [ 1.0; 0.5; 1.0; 0.0 ]) ~threshold:1.0 in
  Alcotest.(check int) "windows" 4 s.False_alarm.windows;
  Alcotest.(check int) "alarms" 2 s.False_alarm.alarms;
  check_float "rate" ~epsilon:1e-9 0.5 s.False_alarm.rate

let test_of_response_empty () =
  let s = False_alarm.of_response (response []) ~threshold:1.0 in
  Alcotest.(check int) "windows" 0 s.False_alarm.windows;
  check_float "rate 0" ~epsilon:0.0 0.0 s.False_alarm.rate

let test_on_clean_background () =
  (* The pure-cycle background is fully covered by training: Stide
     raises no alarms at all. *)
  let suite = small_suite () in
  let stide =
    Trained.train (Registry.find_exn "stide") ~window:6
      suite.Suite.training
  in
  let bg =
    Generator.background suite.Suite.alphabet ~len:2_000 ~phase:0
  in
  let s = False_alarm.on_clean stide bg in
  Alcotest.(check int) "no alarms on clean cycle" 0 s.False_alarm.alarms

let test_markov_alarms_on_rare_content () =
  (* A fresh stream from the generating chain contains rare transitions
     that the Markov detector flags but Stide does not. *)
  let suite = small_suite () in
  let deploy = Deployment.deployment_stream suite ~len:20_000 ~seed:99 in
  let markov =
    Trained.train (Registry.find_exn "markov") ~window:6 suite.Suite.training
  in
  let stide =
    Trained.train (Registry.find_exn "stide") ~window:6 suite.Suite.training
  in
  let m = False_alarm.on_clean markov deploy in
  let s = False_alarm.on_clean stide deploy in
  Alcotest.(check bool)
    (Printf.sprintf "markov (%d) > stide (%d)" m.False_alarm.alarms
       s.False_alarm.alarms)
    true
    (m.False_alarm.alarms > s.False_alarm.alarms)

let test_outside_span_excludes_signal () =
  let suite = small_suite () in
  let window = 8 and anomaly_size = 5 in
  let stide =
    Trained.train (Registry.find_exn "stide") ~window suite.Suite.training
  in
  let test = Suite.stream suite ~anomaly_size ~window in
  let inj = test.Suite.injection in
  let s = False_alarm.outside_span stide inj in
  (* The injected stream is clean outside the anomaly: no false alarms,
     and the windows counted exclude the incident span. *)
  Alcotest.(check int) "no alarms outside span" 0 s.False_alarm.alarms;
  let lo, hi =
    Injector.incident_span ~position:inj.Injector.position ~size:anomaly_size
      ~width:window
  in
  let total_windows =
    Seqdiv_stream.Trace.window_count inj.Injector.trace ~width:window
  in
  Alcotest.(check int) "span excluded" (total_windows - (hi - lo + 1))
    s.False_alarm.windows

let test_static_drifts_adaptive_holds () =
  (* The deployment scenario behind adaptive thresholding: a static
     threshold calibrated to the false-alarm budget on a pre-drift
     corpus blows far past it once the generating process drifts,
     while a controller started from the {e same} calibrated value
     re-tracks the quantile and holds the rate.  ([seqdiv extensions
     --which adaptive] measures the same contrast on a larger corpus.) *)
  let suite = small_suite () in
  let budget = 0.05 in
  let markov =
    Trained.train (Registry.find_exn "markov") ~window:6 suite.Suite.training
  in
  let prng k =
    Seqdiv_util.Prng.create ~seed:(suite.Suite.params.Suite.seed + k)
  in
  let static_threshold =
    (* Calibrate offline, the paper's way: the empirical
       (1 - budget)-quantile of scores on normal pre-drift sessions. *)
    let calib =
      Session_workload.normal suite (prng 23) ~sessions:8 ~length:2_000
    in
    let scores =
      List.concat_map
        (fun trace ->
          Array.to_list
            (Array.map
               (fun i -> i.Response.score)
               (Trained.score markov trace).Response.items))
        (Seqdiv_stream.Sessions.traces calib)
    in
    let a = Array.of_list scores in
    Array.sort Float.compare a;
    let n = Array.length a in
    a.(Stdlib.min (n - 1)
         (int_of_float (Float.ceil ((1.0 -. budget) *. float_of_int n)) - 1))
  in
  let drift =
    Session_workload.drifting suite (prng 29) ~sessions:12 ~length:3_000
      ~segments:3 ~peak_deviation:0.25
  in
  let static_windows = ref 0 and static_alarms = ref 0 in
  let ctl =
    Adaptive_threshold.create
      (Adaptive_threshold.config ~budget ~initial:static_threshold ())
  in
  List.iter
    (fun trace ->
      let resp = Trained.score markov trace in
      let s = False_alarm.of_response resp ~threshold:static_threshold in
      static_windows := !static_windows + s.False_alarm.windows;
      static_alarms := !static_alarms + s.False_alarm.alarms;
      Array.iter
        (fun i -> ignore (Adaptive_threshold.step ctl i.Response.score))
        resp.Response.items)
    (Seqdiv_stream.Sessions.traces drift);
  let static_rate =
    float_of_int !static_alarms /. float_of_int !static_windows
  in
  let adaptive_rate = Adaptive_threshold.observed_rate ctl in
  Alcotest.(check int) "same windows judged" !static_windows
    (Adaptive_threshold.windows ctl);
  Alcotest.(check bool)
    (Printf.sprintf "static rate %.4f blows the budget %.2f" static_rate
       budget)
    true
    (static_rate > 2.0 *. budget);
  Alcotest.(check bool)
    (Printf.sprintf "adaptive rate %.4f holds the budget %.2f" adaptive_rate
       budget)
    true
    (adaptive_rate > 0.0 && adaptive_rate <= (budget *. 1.5) +. 0.01)

let test_threshold_monotonicity () =
  let r = response [ 0.1; 0.4; 0.6; 0.9; 1.0 ] in
  let rate t = (False_alarm.of_response r ~threshold:t).False_alarm.rate in
  Alcotest.(check bool) "monotone" true
    (rate 0.0 >= rate 0.5 && rate 0.5 >= rate 0.95 && rate 0.95 >= rate 1.0)

let () =
  Alcotest.run "false_alarm"
    [
      ( "false_alarm",
        [
          Alcotest.test_case "of_response" `Quick test_of_response;
          Alcotest.test_case "empty" `Quick test_of_response_empty;
          Alcotest.test_case "clean background" `Quick test_on_clean_background;
          Alcotest.test_case "markov vs stide on rare content" `Quick
            test_markov_alarms_on_rare_content;
          Alcotest.test_case "outside span" `Quick test_outside_span_excludes_signal;
          Alcotest.test_case "static drifts, adaptive holds" `Quick
            test_static_drifts_adaptive_holds;
          Alcotest.test_case "threshold monotone" `Quick test_threshold_monotonicity;
        ] );
    ]
