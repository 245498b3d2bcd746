(* Output pins: digests of what the data synthesiser builds and of the
   model files the deployment pipeline writes.  Any change to how
   training windows are stored or looked up must leave every digest
   unchanged; a digest that moves means an output moved.

   Pinned per suite (the tests' tiny suite and one benchmark-scale
   suite): the minimal-foreign and rare candidates of every anomaly
   size, every injected stream's (AS, DW, position, anomaly, length),
   and the rare-threshold sweep.  Pinned per detector (stide and markov
   trained on the tiny suite's training trace): the text model's bytes
   and the bytes of the flat file compiled from the reloaded text
   model. *)

open Seqdiv_stream
open Seqdiv_synth
open Seqdiv_detectors
open Seqdiv_core
open Seqdiv_test_support

let ints a = String.concat "," (List.map string_of_int (Array.to_list a))

let candidates_line b label cs =
  Printf.bprintf b "%s %d:" label (List.length cs);
  List.iter (fun c -> Printf.bprintf b " %s" (ints c)) cs;
  Buffer.add_char b '\n'

let render_suite suite =
  let b = Buffer.create 65536 in
  let p = suite.Suite.params in
  let rare_threshold = p.Suite.rare_threshold in
  List.iter
    (fun size ->
      candidates_line b
        (Printf.sprintf "mfs %d" size)
        (Mfs.candidates suite.Suite.index suite.Suite.alphabet ~size
           ~rare_threshold);
      candidates_line b
        (Printf.sprintf "rare %d" size)
        (Rare_seq.candidates suite.Suite.index ~size ~rare_threshold))
    (Suite.anomaly_sizes suite);
  Array.iter
    (fun s ->
      let inj = s.Suite.injection in
      Printf.bprintf b "stream %d %d %d %s %d\n" s.Suite.anomaly_size
        s.Suite.window inj.Injector.position (ints inj.Injector.anomaly)
        (Trace.length inj.Injector.trace))
    suite.Suite.streams;
  List.iter
    (fun r ->
      Printf.bprintf b "sweep %h %d %d %d\n" r.Ablation.threshold
        r.Ablation.rare_twograms r.Ablation.common_twograms
        r.Ablation.mfs_candidates)
    (Ablation.rare_threshold_sweep suite
       ~thresholds:[ 0.001; 0.0025; 0.005; 0.01; 0.05 ]);
  Buffer.contents b

let digest s = Digest.to_hex (Digest.string s)

let check_suite name ~expected suite () =
  Alcotest.(check string) name expected (digest (render_suite suite))

(* The flat file compiled from a scorer, as bytes. *)
let flat_bytes ~detector scorer =
  let path = Filename.temp_file "seqdiv_pin" ".flat" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Model_io.save_flat_file path ~detector ~alarm_threshold:1.0 scorer;
      In_channel.with_open_bin path In_channel.input_all)

let compiled compile model =
  match compile with
  | Some f -> (
      match f model with
      | Some scorer -> scorer
      | None -> Alcotest.fail "model declined to compile")
  | None -> Alcotest.fail "detector has no compiled form"

let window = 6

let test_stide_files () =
  let training = (tiny_suite ()).Suite.training in
  let text = Model_io.save_stide (Stide.train ~window training) in
  let flat =
    flat_bytes ~detector:"stide"
      (compiled Stide.compile (Model_io.load_stide text))
  in
  Alcotest.(check string) "stide text" "ba77bca94bdc29d15ba22186706c480b" (digest text);
  Alcotest.(check string) "stide flat" "c3ae0d973a4296630f9e289ff72d007d" (digest flat)

let test_markov_files () =
  let training = (tiny_suite ()).Suite.training in
  let text = Model_io.save_markov (Markov.train ~window training) in
  let flat =
    flat_bytes ~detector:"markov"
      (compiled Markov.compile (Model_io.load_markov text))
  in
  Alcotest.(check string) "markov text" "ac65c01f1fde0b4ecf36815005dfc153" (digest text);
  Alcotest.(check string) "markov flat" "942dff389b8c94c9e241332a899954f2" (digest flat)

let () =
  Alcotest.run "pins"
    [
      ( "synthesiser",
        [
          Alcotest.test_case "tiny suite" `Quick
            (fun () -> check_suite "tiny" ~expected:"c4045a6f4053a830605876085d408925" (tiny_suite ()) ());
          Alcotest.test_case "benchmark-scale suite, seed 7" `Quick
            (fun () -> check_suite "bench" ~expected:"0e448d55bb366b58c9b253d6b82fcf2c" (bench_suite ()) ());
        ] );
      ( "model files",
        [
          Alcotest.test_case "stide text and flat" `Quick test_stide_files;
          Alcotest.test_case "markov text and flat" `Quick test_markov_files;
        ] );
    ]
