open Seqdiv_stream
open Seqdiv_detectors
open Seqdiv_test_support

let fast_params = { Neural.default_params with Neural.epochs = 120 }

(* A small but structured training trace: the cycle with one rare
   deviation, so the network has both a dominant and a rare
   continuation to learn. *)
let structured_trace () =
  let symbols =
    List.concat
      (List.init 80 (fun i ->
           if i = 40 then [ 0; 1; 2; 4 ] else [ 0; 1; 2; 3 ]))
  in
  Trace.of_list (Alphabet.make 5) symbols

let test_predict_is_distribution () =
  let model = Neural.train_with fast_params ~window:2 (structured_trace ()) in
  let probs = Neural.predict model [| 0 |] in
  Alcotest.(check int) "size" 5 (Array.length probs);
  let total = Array.fold_left ( +. ) 0.0 probs in
  check_float "sums to 1" ~epsilon:1e-6 1.0 total;
  Array.iter (fun p -> if p < 0.0 then Alcotest.fail "negative prob") probs

let test_learns_dominant_transition () =
  let model = Neural.train_with fast_params ~window:2 (structured_trace ()) in
  let probs = Neural.predict model [| 0 |] in
  Alcotest.(check bool) "p(1|0) dominant" true (probs.(1) > 0.9)

let test_deterministic_in_seed () =
  let t = structured_trace () in
  let m1 = Neural.train_with fast_params ~window:2 t in
  let m2 = Neural.train_with fast_params ~window:2 t in
  let p1 = Neural.predict m1 [| 2 |] and p2 = Neural.predict m2 [| 2 |] in
  Alcotest.(check (array (float 0.0))) "same weights" p1 p2

let test_seed_changes_model () =
  let t = structured_trace () in
  let m1 = Neural.train_with fast_params ~window:2 t in
  let m2 =
    Neural.train_with { fast_params with Neural.seed = 7 } ~window:2 t
  in
  Alcotest.(check bool) "different predictions" false
    (Neural.predict m1 [| 2 |] = Neural.predict m2 [| 2 |])

let test_training_reduces_loss () =
  let t = structured_trace () in
  let untrained = Neural.train_with { fast_params with Neural.epochs = 1 } ~window:2 t in
  let trained = Neural.train_with fast_params ~window:2 t in
  Alcotest.(check bool)
    (Printf.sprintf "loss shrinks (%.4f -> %.4f)" (Neural.training_loss untrained)
       (Neural.training_loss trained))
    true
    (Neural.training_loss trained < Neural.training_loss untrained)

let test_scores_in_range () =
  let t = structured_trace () in
  let model = Neural.train_with fast_params ~window:3 t in
  let r = Neural.score model t in
  Array.iter
    (fun (i : Response.item) ->
      if i.Response.score < 0.0 || i.Response.score > 1.0 then
        Alcotest.fail "score out of range";
      Alcotest.(check int) "cover" 3 i.Response.cover)
    r.Response.items

let test_rare_transition_scores_high () =
  let t = structured_trace () in
  let model = Neural.train_with fast_params ~window:2 t in
  (* window (2,4): the rare deviation *)
  let r = Neural.score model (Trace.of_list (Alphabet.make 5) [ 2; 4 ]) in
  Alcotest.(check bool) "rare continuation anomalous" true
    (Response.max_score r > 0.8);
  (* window (2,3): the common continuation *)
  let r2 = Neural.score model (Trace.of_list (Alphabet.make 5) [ 2; 3 ]) in
  Alcotest.(check bool) "common continuation normal" true
    (Response.max_score r2 < 0.2)

let test_params_recorded () =
  let t = structured_trace () in
  let model = Neural.train_with fast_params ~window:2 t in
  Alcotest.(check int) "epochs" fast_params.Neural.epochs
    (Neural.params model).Neural.epochs;
  Alcotest.(check int) "window" 2 (Neural.window model)

let test_rejects_short_trace () =
  Alcotest.check_raises "short"
    (Invalid_argument "Neural.train: trace shorter than window") (fun () ->
      ignore (Neural.train ~window:5 (trace8 [ 0; 1 ])))

let test_mimics_markov_on_suite () =
  (* The paper's Section 7 conclusion: the NN approximates the Markov
     detector.  On one suite cell both should be capable. *)
  let suite = tiny_suite () in
  let training = suite.Seqdiv_synth.Suite.training in
  let window = 4 in
  let nn =
    Neural.train_with { Neural.default_params with Neural.epochs = 250 }
      ~window training
  in
  let s = Seqdiv_synth.Suite.stream suite ~anomaly_size:6 ~window in
  let inj = s.Seqdiv_synth.Suite.injection in
  let lo, hi =
    Seqdiv_synth.Injector.incident_span
      ~position:inj.Seqdiv_synth.Injector.position ~size:6 ~width:window
  in
  let r = Neural.score_range nn inj.Seqdiv_synth.Injector.trace ~lo ~hi in
  Alcotest.(check bool) "capable below the diagonal" true
    (Response.max_score r >= 1.0 -. Neural.maximal_epsilon)

(* A symbol outside the training alphabet — in the first or last
   context position, or as the next symbol — makes the window unseen:
   it scores 1, as an unseen context or continuation does in Markov,
   through the detector and through the engine's [Trained] wrapper. *)
let test_out_of_alphabet_scores_one () =
  let model = Neural.train_with fast_params ~window:3 (structured_trace ()) in
  let trained =
    Seqdiv_core.Trained.train (Registry.find_exn "nn") ~window:3
      (structured_trace ())
  in
  List.iter
    (fun (where, symbols) ->
      let trace = trace8 symbols in
      let r = Neural.score_range model trace ~lo:0 ~hi:0 in
      Alcotest.(check (float 0.0)) (where ^ ": score_range") 1.0
        (Response.max_score r);
      let r = Seqdiv_core.Trained.score trained trace in
      Alcotest.(check (float 0.0)) (where ^ ": Trained.score") 1.0
        (Response.max_score r))
    [
      ("first context position", [ 7; 1; 2 ]);
      ("last context position", [ 0; 7; 2 ]);
      ("next symbol", [ 0; 1; 7 ]);
    ]

let test_out_of_alphabet_leaves_neighbours () =
  (* Only windows holding the foreign symbol change. *)
  let model = Neural.train_with fast_params ~window:3 (structured_trace ()) in
  let clean = [ 0; 1; 2; 3; 0; 1; 2; 3; 0 ] in
  let dirty = List.mapi (fun i s -> if i = 4 then 6 else s) clean in
  let items l = (Neural.score model (trace8 l)).Response.items in
  Array.iteri
    (fun i (d : Response.item) ->
      let expected =
        if d.Response.start >= 2 && d.Response.start <= 4 then 1.0
        else (items clean).(i).Response.score
      in
      Alcotest.(check (float 0.0))
        (Printf.sprintf "window %d" d.Response.start)
        expected d.Response.score)
    (items dirty)

let test_predict_rejects_foreign_symbol () =
  let model = Neural.train_with fast_params ~window:3 (structured_trace ()) in
  List.iter
    (fun context ->
      Alcotest.check_raises "foreign context symbol"
        (Invalid_argument "Neural.predict: context symbol outside the alphabet")
        (fun () -> ignore (Neural.predict model context)))
    [ [| 5; 0 |]; [| 0; 5 |]; [| -1; 0 |] ]

(* Bit-identity pins: one FNV-1a digest per trained model over the
   bits of the training loss, of [predict] on every distinct training
   context (ascending, as [Seq_trie.iter_slice] visits them), and of
   every [score_range] item of the suite's injected streams at that
   window.  Any change to the float operations of training or scoring
   shows up here.  The tiny suite's literals at DW 2-8 were produced by
   the original dense trainer. *)
let fold_float h x = Seqdiv_util.Hash.fnv_int64 h (Int64.bits_of_float x)

let model_digest ?(params = Neural.default_params) suite ~window =
  let training = suite.Seqdiv_synth.Suite.training in
  let model = Neural.train_with params ~window training in
  let h =
    ref (fold_float Seqdiv_util.Hash.fnv_basis (Neural.training_loss model))
  in
  let contexts = Seq_trie.of_trace ~max_len:(window - 1) training in
  Seq_trie.iter_slice contexts ~depth:(window - 1) (fun context _ ->
      Array.iter (fun p -> h := fold_float !h p) (Neural.predict model context));
  Array.iter
    (fun (s : Seqdiv_synth.Suite.test_stream) ->
      if s.Seqdiv_synth.Suite.window = window then begin
        let trace = s.Seqdiv_synth.Suite.injection.Seqdiv_synth.Injector.trace in
        let r = Neural.score_range model trace ~lo:0 ~hi:(Trace.length trace) in
        Array.iter
          (fun (i : Response.item) ->
            h := Seqdiv_util.Hash.fnv_int !h i.Response.start;
            h := fold_float !h i.Response.score)
          r.Response.items
      end)
    suite.Seqdiv_synth.Suite.streams;
  Printf.sprintf "%016Lx" !h

let check_digests ?params suite pins =
  List.iter
    (fun (window, expected) ->
      Alcotest.(check string)
        (Printf.sprintf "DW %d digest" window)
        expected
        (model_digest ?params suite ~window))
    pins

let test_bit_identity_pin () =
  check_digests (tiny_suite ())
    [
      (2, "e5f9f603d84b0048");
      (3, "cb17b42e777773a8");
      (4, "c17b1fe38c938c18");
      (5, "6beb7e485a23992b");
      (6, "d0ebe971f992dfa6");
      (7, "7ddffba59e4dcc39");
      (8, "aaaedadf78a95281");
    ]

(* The benchmark-scale suite at every window of the paper's grid. *)
let test_bench_suite_pin () =
  check_digests (bench_suite ())
    [
      (2, "4a2a5adb20ab8882");
      (3, "2405fa73b7b42bd9");
      (4, "5eafbff9ba23edf9");
      (5, "957a04870ed0f78c");
      (6, "79938f3439d22311");
      (7, "93b7d715a6700210");
      (8, "51cfb5fb43da68f1");
      (9, "e62ad8add3fec798");
      (10, "0c2caae310780615");
      (11, "7f4b4efbcd3068b1");
      (12, "9469c031da2f1810");
      (13, "2c9e8e78a84aba11");
      (14, "a31561123b485e7d");
      (15, "3d0e4c08892b686d");
    ]

(* The A2 ablation's parameter points at DW 5 on the tiny suite: a
   single hidden unit, few epochs, a low rate, no momentum. *)
let test_ablation_points_pin () =
  let base = Neural.default_params in
  List.iter
    (fun (params, expected) -> check_digests ~params (tiny_suite ()) [ (5, expected) ])
    [
      ({ base with Neural.hidden = 1 }, "e7608ac7c95218a7");
      ({ base with Neural.epochs = 10 }, "f56f2a09f2433fa0");
      ({ base with Neural.learning_rate = 0.005; epochs = 50 }, "80945f5f098c70bf");
      ({ base with Neural.momentum = 0.0; learning_rate = 0.05 }, "0f04aed314d4b42a");
    ]

(* Training allocates its buffers once per call, none per epoch: twice
   the epochs on the same trace allocate exactly as many minor words. *)
let test_training_allocation_free () =
  let training = (tiny_suite ()).Seqdiv_synth.Suite.training in
  let minor_words epochs =
    let p = { Neural.default_params with Neural.epochs } in
    let before = Gc.minor_words () in
    ignore (Sys.opaque_identity (Neural.train_with p ~window:8 training));
    Gc.minor_words () -. before
  in
  let once = minor_words 5 and twice = minor_words 10 in
  Alcotest.(check (float 0.0))
    (Printf.sprintf "minor words at 5 and 10 epochs (%.0f, %.0f)" once twice)
    once twice

let () =
  Alcotest.run "neural"
    [
      ( "neural",
        [
          Alcotest.test_case "predict distribution" `Quick test_predict_is_distribution;
          Alcotest.test_case "learns dominant" `Quick test_learns_dominant_transition;
          Alcotest.test_case "deterministic" `Quick test_deterministic_in_seed;
          Alcotest.test_case "seed sensitivity" `Quick test_seed_changes_model;
          Alcotest.test_case "loss decreases" `Quick test_training_reduces_loss;
          Alcotest.test_case "scores in range" `Quick test_scores_in_range;
          Alcotest.test_case "rare transition" `Quick test_rare_transition_scores_high;
          Alcotest.test_case "params recorded" `Quick test_params_recorded;
          Alcotest.test_case "rejects short" `Quick test_rejects_short_trace;
          Alcotest.test_case "mimics markov" `Quick test_mimics_markov_on_suite;
          Alcotest.test_case "out of alphabet scores 1" `Quick
            test_out_of_alphabet_scores_one;
          Alcotest.test_case "out of alphabet, neighbours unchanged" `Quick
            test_out_of_alphabet_leaves_neighbours;
          Alcotest.test_case "predict rejects foreign symbol" `Quick
            test_predict_rejects_foreign_symbol;
          Alcotest.test_case "bit-identity pin" `Quick test_bit_identity_pin;
          Alcotest.test_case "bit-identity pin, benchmark-scale suite" `Quick
            test_bench_suite_pin;
          Alcotest.test_case "bit-identity pin, A2 parameter points" `Quick
            test_ablation_points_pin;
          Alcotest.test_case "no allocation per epoch" `Quick
            test_training_allocation_free;
        ] );
    ]
