open Seqdiv_stream
open Seqdiv_synth
open Seqdiv_test_support

let fixture () =
  let suite = small_suite () in
  let background = Generator.background alphabet8 ~len:2_000 ~phase:0 in
  (suite.Suite.index, suite.Suite.alphabet, background,
   suite.Suite.params.Suite.rare_threshold)

let test_incident_span () =
  (* Figure 2's example: DW=5, AS=8 -> span covers DW+AS-1 = 12 windows. *)
  let lo, hi = Injector.incident_span ~position:100 ~size:8 ~width:5 in
  Alcotest.(check int) "first" 96 lo;
  Alcotest.(check int) "last" 107 hi;
  Alcotest.(check int) "window count" 12 (hi - lo + 1)

let test_incident_span_clamped () =
  let lo, hi = Injector.incident_span ~position:2 ~size:3 ~width:10 in
  Alcotest.(check int) "clamped at 0" 0 lo;
  Alcotest.(check int) "last" 4 hi

let test_inject_basic () =
  let index, alphabet, background, rare = fixture () in
  let anomaly =
    match Mfs.find index alphabet ~size:5 ~rare_threshold:rare with
    | Ok a -> a
    | Error e -> Alcotest.fail e
  in
  match Injector.inject index ~background ~anomaly ~width:6 with
  | None -> Alcotest.fail "injection failed"
  | Some inj ->
      Alcotest.(check int) "length grows by anomaly size"
        (Trace.length background + 5)
        (Trace.length inj.Injector.trace);
      (* The anomaly is present at the reported position. *)
      let got =
        Trace.to_array
          (Trace.sub inj.Injector.trace ~pos:inj.Injector.position ~len:5)
      in
      Alcotest.(check (array int)) "anomaly in place" anomaly got

let test_inject_left_junction_is_cycle () =
  let index, alphabet, background, rare = fixture () in
  let anomaly =
    match Mfs.find index alphabet ~size:4 ~rare_threshold:rare with
    | Ok a -> a
    | Error e -> Alcotest.fail e
  in
  match Injector.inject index ~background ~anomaly ~width:8 with
  | None -> Alcotest.fail "injection failed"
  | Some inj ->
      let p = inj.Injector.position in
      let before = Trace.get inj.Injector.trace (p - 1) in
      Alcotest.(check int) "cycle predecessor" ((anomaly.(0) + 7) mod 8) before

let test_inject_right_rephased () =
  let index, alphabet, background, rare = fixture () in
  let anomaly =
    match Mfs.find index alphabet ~size:4 ~rare_threshold:rare with
    | Ok a -> a
    | Error e -> Alcotest.fail e
  in
  match Injector.inject index ~background ~anomaly ~width:8 with
  | None -> Alcotest.fail "injection failed"
  | Some inj ->
      let p = inj.Injector.position in
      let last = anomaly.(3) in
      let after = Trace.get inj.Injector.trace (p + 4) in
      Alcotest.(check int) "cycle successor" ((last + 1) mod 8) after;
      (* and the right side continues the cycle from there *)
      for i = p + 4 to Stdlib.min (p + 40) (Trace.length inj.Injector.trace - 2) do
        let a = Trace.get inj.Injector.trace i in
        Alcotest.(check int) "cycle continues" ((a + 1) mod 8)
          (Trace.get inj.Injector.trace (i + 1))
      done

let test_clean_boundaries_detects_dirt () =
  let index, _, _, _ = fixture () in
  (* Build a trace with a raw (un-rephased) splice: a structural-zero
     junction makes a boundary window foreign. *)
  let background = Generator.background alphabet8 ~len:100 ~phase:0 in
  let raw = Trace.insert background ~pos:50 (trace8 [ 0; 0 ]) in
  Alcotest.(check bool) "dirty splice flagged" false
    (Injector.clean_boundaries index raw ~position:50 ~size:2 ~width:4)

let test_clean_boundaries_accepts_suite_streams () =
  let suite = small_suite () in
  List.iter
    (fun anomaly_size ->
      List.iter
        (fun window ->
          let s = Suite.stream suite ~anomaly_size ~window in
          let inj = s.Suite.injection in
          Alcotest.(check bool)
            (Printf.sprintf "AS=%d DW=%d clean" anomaly_size window)
            true
            (Injector.clean_boundaries suite.Suite.index inj.Injector.trace
               ~position:inj.Injector.position ~size:anomaly_size ~width:window))
        [ 2; 8; 15 ])
    [ 2; 5; 9 ]

let test_inject_too_short_background () =
  let index, _, _, _ = fixture () in
  let tiny = Generator.background alphabet8 ~len:10 ~phase:0 in
  Alcotest.check_raises "too short"
    (Invalid_argument "Injector.inject: background too short") (fun () ->
      ignore (Injector.inject index ~background:tiny ~anomaly:[| 0; 0 |] ~width:8))

let test_inject_first_skips_dirty () =
  let index, alphabet, background, rare = fixture () in
  (* First candidate impossible to inject cleanly (contains a foreign
     2-gram, so its own internal windows are foreign); a real MFS
     follows. *)
  let bogus = [| 0; 4; 0; 4 |] in
  let good =
    match Mfs.find index alphabet ~size:4 ~rare_threshold:rare with
    | Ok a -> a
    | Error e -> Alcotest.fail e
  in
  match
    Injector.inject_first index ~background ~candidates:[ bogus; good ]
      ~width:3
  with
  | None -> Alcotest.fail "no candidate injected"
  | Some inj -> Alcotest.(check (array int)) "fell through to good" good
                  inj.Injector.anomaly

let prop_windows_outside_span_common =
  (* Every window NOT containing the whole anomaly, over the entire
     injected stream, exists in training: background windows and
     boundary windows alike. *)
  qcheck ~count:8 "all non-signal windows are known"
    QCheck.(pair (int_range 2 9) (int_range 2 15))
    (fun (anomaly_size, window) ->
      let suite = small_suite () in
      let s = Suite.stream suite ~anomaly_size ~window in
      let inj = s.Suite.injection in
      let trace = inj.Injector.trace in
      let p = inj.Injector.position in
      let ok = ref true in
      Trace.iter_windows trace ~width:window (fun pos ->
          let contains_whole =
            pos <= p && pos + window >= p + anomaly_size
          in
          if not contains_whole then
            if
              not
                (Seq_trie.mem_at suite.Suite.index (Trace.raw trace) ~pos
                   ~len:window)
            then ok := false);
      !ok)

let () =
  Alcotest.run "injector"
    [
      ( "injector",
        [
          Alcotest.test_case "incident span" `Quick test_incident_span;
          Alcotest.test_case "incident span clamped" `Quick test_incident_span_clamped;
          Alcotest.test_case "inject basic" `Quick test_inject_basic;
          Alcotest.test_case "left junction" `Quick test_inject_left_junction_is_cycle;
          Alcotest.test_case "right re-phased" `Quick test_inject_right_rephased;
          Alcotest.test_case "detects dirty splice" `Quick test_clean_boundaries_detects_dirt;
          Alcotest.test_case "suite streams clean" `Quick
            test_clean_boundaries_accepts_suite_streams;
          Alcotest.test_case "background too short" `Quick test_inject_too_short_background;
          Alcotest.test_case "inject_first skips dirty" `Quick test_inject_first_skips_dirty;
          prop_windows_outside_span_common;
        ] );
    ]
