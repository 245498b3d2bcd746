open Seqdiv_stream
open Seqdiv_synth
open Seqdiv_test_support

let test_paper_params_shape () =
  let p = Suite.paper_params in
  Alcotest.(check int) "alphabet" 8 p.Suite.alphabet_size;
  Alcotest.(check int) "training" 1_000_000 p.Suite.train_len;
  Alcotest.(check int) "as range" 2 p.Suite.as_min;
  Alcotest.(check int) "as range max" 9 p.Suite.as_max;
  Alcotest.(check int) "dw range" 2 p.Suite.dw_min;
  Alcotest.(check int) "dw range max" 15 p.Suite.dw_max;
  check_float "rare threshold" ~epsilon:0.0 0.005 p.Suite.rare_threshold

let test_stream_count () =
  (* The paper's 112 test streams: 8 anomaly sizes x 14 windows. *)
  let suite = small_suite () in
  Alcotest.(check int) "112 streams" 112 (Array.length suite.Suite.streams)

let test_ranges () =
  let suite = small_suite () in
  Alcotest.(check (list int)) "anomaly sizes" [ 2; 3; 4; 5; 6; 7; 8; 9 ]
    (Suite.anomaly_sizes suite);
  Alcotest.(check (list int)) "windows"
    [ 2; 3; 4; 5; 6; 7; 8; 9; 10; 11; 12; 13; 14; 15 ]
    (Suite.windows suite)

let test_stream_lookup () =
  let suite = small_suite () in
  let s = Suite.stream suite ~anomaly_size:7 ~window:11 in
  Alcotest.(check int) "anomaly size" 7 s.Suite.anomaly_size;
  Alcotest.(check int) "window" 11 s.Suite.window;
  Alcotest.(check int) "anomaly length" 7
    (Array.length s.Suite.injection.Injector.anomaly)

let test_every_stream_has_single_mfs () =
  let suite = small_suite () in
  Array.iter
    (fun (s : Suite.test_stream) ->
      match Mfs.verify suite.Suite.index s.Suite.injection.Injector.anomaly with
      | Mfs.Ok_minimal_foreign -> ()
      | _ ->
          Alcotest.fail
            (Printf.sprintf "stream AS=%d DW=%d anomaly is not an MFS"
               s.Suite.anomaly_size s.Suite.window))
    suite.Suite.streams

let test_deterministic_in_seed () =
  let p = { tiny_params with Suite.train_len = 20_000 } in
  let a = Suite.build p and b = Suite.build p in
  Alcotest.(check bool) "same training" true
    (Trace.equal a.Suite.training b.Suite.training);
  let sa = Suite.stream a ~anomaly_size:4 ~window:5 in
  let sb = Suite.stream b ~anomaly_size:4 ~window:5 in
  Alcotest.(check bool) "same streams" true
    (Trace.equal sa.Suite.injection.Injector.trace
       sb.Suite.injection.Injector.trace)

let test_seed_changes_data () =
  let p = { tiny_params with Suite.train_len = 20_000 } in
  let a = Suite.build p and b = Suite.build { p with Suite.seed = 9 } in
  Alcotest.(check bool) "different training" false
    (Trace.equal a.Suite.training b.Suite.training)

let test_validation () =
  let bad field =
    Alcotest.check_raises field (Invalid_argument ("Suite: " ^ field))
  in
  bad "as_min < 2" (fun () ->
      ignore (Suite.build { small_params with Suite.as_min = 1 }));
  bad "dw_min < 2" (fun () ->
      ignore (Suite.build { small_params with Suite.dw_min = 1 }));
  bad "alphabet_size < 5" (fun () ->
      ignore (Suite.build { small_params with Suite.alphabet_size = 3 }));
  bad "rare_threshold out of range" (fun () ->
      ignore (Suite.build { small_params with Suite.rare_threshold = 1.5 }));
  bad "train_len too small" (fun () ->
      ignore (Suite.build { small_params with Suite.train_len = 10 }))

let test_build_failure_is_descriptive () =
  (* With a deviation-free chain the training stream is the pure cycle:
     no rare material exists, so no minimal foreign sequence of size 3
     can be composed (a foreign 3-gram would need a deviant 2-gram in
     the training data).  The build must fail with an error naming the
     cell rather than loop or produce a bogus suite. *)
  let p =
    { (Suite.scaled_params ~train_len:5_000 ~background_len:1_000) with
      Suite.deviation = 0.0;
      as_min = 3;
      as_max = 3;
      dw_max = 4;
    }
  in
  match Suite.build p with
  | _ -> Alcotest.fail "expected Suite.build to fail"
  | exception Injector.No_clean_injection message ->
      Alcotest.(check bool) "mentions the anomaly size" true
        (String.length message > 0
        &&
        let re = "size 3" in
        let rec contains i =
          i + String.length re <= String.length message
          && (String.sub message i (String.length re) = re || contains (i + 1))
        in
        contains 0)

let test_index_depth () =
  let suite = small_suite () in
  Alcotest.(check bool) "index covers windows and anomalies" true
    (Seqdiv_stream.Seq_trie.max_len suite.Suite.index >= 15)

let test_scale_invariance () =
  (* The qualitative structure does not depend on the training length:
     MFS candidates found at 40k match foreignness/minimality at 80k
     scale as well (stability of the n-gram statistics, DESIGN.md §4). *)
  let small = small_suite () in
  let bigger =
    Suite.build (Suite.scaled_params ~train_len:80_000 ~background_len:2_000)
  in
  List.iter
    (fun anomaly_size ->
      let s = Suite.stream small ~anomaly_size ~window:2 in
      match
        Mfs.verify bigger.Suite.index s.Suite.injection.Injector.anomaly
      with
      | Mfs.Ok_minimal_foreign | Mfs.Not_foreign _ -> ()
      | Mfs.Sub_foreign _ | Mfs.Too_short ->
          Alcotest.fail "sub-sequences vanished at larger scale")
    [ 2; 5; 9 ]

let () =
  Alcotest.run "suite"
    [
      ( "suite",
        [
          Alcotest.test_case "paper params" `Quick test_paper_params_shape;
          Alcotest.test_case "112 streams" `Quick test_stream_count;
          Alcotest.test_case "ranges" `Quick test_ranges;
          Alcotest.test_case "lookup" `Quick test_stream_lookup;
          Alcotest.test_case "every stream has an MFS" `Quick
            test_every_stream_has_single_mfs;
          Alcotest.test_case "deterministic" `Quick test_deterministic_in_seed;
          Alcotest.test_case "seed sensitivity" `Quick test_seed_changes_data;
          Alcotest.test_case "validation" `Quick test_validation;
          Alcotest.test_case "descriptive build failure" `Quick
            test_build_failure_is_descriptive;
          Alcotest.test_case "index depth" `Quick test_index_depth;
          Alcotest.test_case "scale invariance" `Quick test_scale_invariance;
        ] );
    ]
