open Seqdiv_stream
open Seqdiv_detectors
open Seqdiv_test_support

let training () =
  (Seqdiv_test_support.tiny_suite ()).Seqdiv_synth.Suite.training

let probe () =
  let suite = tiny_suite () in
  let s = Seqdiv_synth.Suite.stream suite ~anomaly_size:4 ~window:5 in
  s.Seqdiv_synth.Suite.injection.Seqdiv_synth.Injector.trace

let responses_equal a b =
  Array.length a.Response.items = Array.length b.Response.items
  && Array.for_all2
       (fun (x : Response.item) (y : Response.item) ->
         x.Response.start = y.Response.start
         && Float.equal x.Response.score y.Response.score)
       a.Response.items b.Response.items

let test_stide_round_trip () =
  let model = Stide.train ~window:5 (training ()) in
  let restored = Model_io.load_stide (Model_io.save_stide model) in
  Alcotest.(check int) "window" 5 (Stide.window restored);
  Alcotest.(check int) "cardinality"
    (Seq_trie.distinct (Stide.trie model) 5)
    (Seq_trie.distinct (Stide.trie restored) 5);
  Alcotest.(check int) "totals"
    (Seq_trie.total (Stide.trie model) 5)
    (Seq_trie.total (Stide.trie restored) 5);
  Alcotest.(check bool) "identical scoring" true
    (responses_equal (Stide.score model (probe ())) (Stide.score restored (probe ())))

let test_markov_round_trip () =
  let model = Markov.train ~window:4 (training ()) in
  let restored = Model_io.load_markov (Model_io.save_markov model) in
  Alcotest.(check int) "window" 4 (Markov.window restored);
  Alcotest.(check int) "contexts" (Markov.contexts model)
    (Markov.contexts restored);
  Alcotest.(check bool) "identical scoring" true
    (responses_equal
       (Markov.score model (probe ()))
       (Markov.score restored (probe ())))

let test_markov_probabilities_preserved () =
  let model = Markov.train ~window:2 (trace8 [ 0; 1; 0; 1; 0; 2 ]) in
  let restored = Model_io.load_markov (Model_io.save_markov model) in
  check_float "p(1|0)" ~epsilon:1e-12 (2.0 /. 3.0)
    (Markov.probability restored ~context:[| 0 |] ~next:1);
  check_float "p(2|0)" ~epsilon:1e-12 (1.0 /. 3.0)
    (Markov.probability restored ~context:[| 0 |] ~next:2)

let test_stide_file_round_trip () =
  let path = Filename.temp_file "seqdiv" ".stide" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let model = Stide.train ~window:3 (trace8 [ 0; 1; 2; 3; 4; 0; 1 ]) in
      Model_io.save_stide_file path model;
      let restored = Model_io.load_stide_file path in
      Alcotest.(check int) "cardinality"
        (Seq_trie.distinct (Stide.trie model) (Stide.window model))
        (Seq_trie.distinct (Stide.trie restored) (Stide.window restored)))

let test_markov_file_round_trip () =
  let path = Filename.temp_file "seqdiv" ".markov" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let model = Markov.train ~window:3 (trace8 [ 0; 1; 2; 3; 4; 0; 1 ]) in
      Model_io.save_markov_file path model;
      let restored = Model_io.load_markov_file path in
      Alcotest.(check int) "contexts" (Markov.contexts model)
        (Markov.contexts restored))

(* The text formats carry symbols 0..255: a model over a wider alphabet
   saves while its windows stay below 256 and is refused, with the
   documented exception, once one does not. *)
let test_wide_symbols () =
  let alphabet = Alphabet.make 300 in
  let low = Trace.of_list alphabet [ 0; 1; 2; 0; 1; 2 ] in
  let high = Trace.of_list alphabet [ 0; 1; 299; 0; 1; 299 ] in
  let round_trips m = Stide.window (Model_io.load_stide (Model_io.save_stide m)) in
  Alcotest.(check int) "low symbols save" 2 (round_trips (Stide.train ~window:2 low));
  Alcotest.check_raises "stide"
    (Invalid_argument "Model_io.save_stide: symbol 299 above 255") (fun () ->
      ignore (Model_io.save_stide (Stide.train ~window:2 high)));
  Alcotest.check_raises "markov"
    (Invalid_argument "Model_io.save_markov: symbol 299 above 255") (fun () ->
      ignore (Model_io.save_markov (Markov.train ~window:2 high)))

let test_bad_inputs_rejected () =
  let fails f s =
    match f s with
    | _ -> Alcotest.fail "expected Parse_error"
    | exception Seqdiv_stream.Parse_error.Error _ -> ()
  in
  fails Model_io.load_stide "";
  fails Model_io.load_stide "#wrong header";
  fails Model_io.load_stide "#seqdiv-stide 1 window=3\nnot-a-count 1,2,3";
  fails Model_io.load_stide "#seqdiv-stide 1 window=3\n2 1,2";
  fails Model_io.load_markov "";
  fails Model_io.load_markov "#seqdiv-markov 1 window=2 alphabet=4\nmalformed";
  fails Model_io.load_markov "#seqdiv-markov 1 window=2 alphabet=4\n0 | 1,2,3"

(* A header window or alphabet no line of the input could spell out is
   refused with [Parse_error] before anything is sized by it: neither
   [Out_of_memory] nor a table of the declared size. *)
let test_oversized_header_rejected () =
  let refused what f s =
    let before = Gc.allocated_bytes () in
    (match f s with
    | _ -> Alcotest.failf "%s: expected Parse_error" what
    | exception Seqdiv_stream.Parse_error.Error _ -> ());
    let allocated = Gc.allocated_bytes () -. before in
    if allocated > 1e6 then
      Alcotest.failf "%s: %.0f bytes allocated before the refusal" what allocated
  in
  refused "stide window 1e12" Model_io.load_stide
    "#seqdiv-stide 1 window=1000000000000\n1 0,1,2\n";
  refused "stide window 1e8" Model_io.load_stide
    "#seqdiv-stide 1 window=100000000\n1 0,1,2\n";
  refused "markov alphabet 1e12" Model_io.load_markov
    "#seqdiv-markov 1 window=3 alphabet=1000000000000\n0,1 | 1,2\n";
  refused "markov window 1e12" Model_io.load_markov
    "#seqdiv-markov 1 window=1000000000000 alphabet=2\n0,1 | 1,2\n";
  (* A window as long as the input still loads, up to its lines. *)
  let m = Model_io.load_stide "#seqdiv-stide 1 window=3\n1 0,1,2\n" in
  Alcotest.(check int) "small window" 3 (Stide.window m)

let test_missing_file_raises_parse_error () =
  (* A missing or unreadable model file must surface as a Parse_error
     carrying the path, not a bare Sys_error from the runtime. *)
  let missing = "/nonexistent/seqdiv-no-such-model" in
  let fails what f =
    match f missing with
    | _ -> Alcotest.failf "%s: expected Parse_error" what
    | exception Seqdiv_stream.Parse_error.Error msg ->
        Alcotest.(check bool)
          (what ^ " message carries the path")
          true
          (let n = String.length msg and m = String.length missing in
           let rec scan i =
             i + m <= n && (String.sub msg i m = missing || scan (i + 1))
           in
           scan 0)
  in
  fails "load_stide_file" Model_io.load_stide_file;
  fails "load_markov_file" Model_io.load_markov_file;
  fails "load_flat_file" (fun p -> Model_io.load_flat_file p)

let test_flat_rejects_garbage () =
  let path = Filename.temp_file "seqdiv" ".flat" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc "definitely not a flat model");
      match Model_io.load_flat_file path with
      | _ -> Alcotest.fail "expected Parse_error on garbage flat file"
      | exception Seqdiv_stream.Parse_error.Error _ -> ())

let test_save_is_deterministic () =
  let model = Markov.train ~window:3 (training ()) in
  Alcotest.(check string) "stable output" (Model_io.save_markov model)
    (Model_io.save_markov model)

let () =
  Alcotest.run "model_io"
    [
      ( "model_io",
        [
          Alcotest.test_case "stide round trip" `Quick test_stide_round_trip;
          Alcotest.test_case "markov round trip" `Quick test_markov_round_trip;
          Alcotest.test_case "markov probabilities" `Quick
            test_markov_probabilities_preserved;
          Alcotest.test_case "stide file" `Quick test_stide_file_round_trip;
          Alcotest.test_case "markov file" `Quick test_markov_file_round_trip;
          Alcotest.test_case "bad inputs" `Quick test_bad_inputs_rejected;
          Alcotest.test_case "oversized header" `Quick
            test_oversized_header_rejected;
          Alcotest.test_case "symbols above 255" `Quick test_wide_symbols;
          Alcotest.test_case "missing files" `Quick
            test_missing_file_raises_parse_error;
          Alcotest.test_case "garbage flat file" `Quick
            test_flat_rejects_garbage;
          Alcotest.test_case "deterministic save" `Quick test_save_is_deterministic;
        ] );
    ]
