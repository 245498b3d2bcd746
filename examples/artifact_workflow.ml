(* The artifact workflow: generate the evaluation corpus once, persist
   it with its ground truth, train and persist deployment models, and
   monitor a live stream online — the full life-cycle a downstream user
   of this library goes through.

   Run with: dune exec examples/artifact_workflow.exe *)

open Seqdiv_stream
open Seqdiv_synth
open Seqdiv_core
open Seqdiv_detectors

let () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "seqdiv_artifact" in

  (* 1. Generate and persist the corpus (training data + 112 injected
     test streams + manifest with ground truth). *)
  let params = Suite.scaled_params ~train_len:60_000 ~background_len:3_000 in
  let suite = Suite.build params in
  Dataset_io.save suite ~dir;
  Printf.printf "corpus saved to %s (%d test streams)\n" dir
    (Array.length suite.Suite.streams);

  (* 2. Reload it — e.g. on another machine — and verify it evaluates
     identically. *)
  let reloaded = Dataset_io.load ~dir in
  let map s = Experiment.performance_map s (Registry.find_exn "stide") in
  let same =
    Coverage.equal (Coverage.of_map (map suite)) (Coverage.of_map (map reloaded))
  in
  Printf.printf "reloaded corpus reproduces the stide map: %s\n"
    (if same then "yes" else "NO");

  (* 3. Train the deployment pair once and persist the models. *)
  let window = 8 in
  let stide_model = Stide.train ~window reloaded.Suite.training in
  let markov_model = Markov.train ~window reloaded.Suite.training in
  let stide_path = Filename.concat dir "stide.model" in
  let markov_path = Filename.concat dir "markov.model" in
  Model_io.save_stide_file stide_path stide_model;
  Model_io.save_markov_file markov_path markov_model;
  Printf.printf "models saved: %s (%d sequences), %s (%d contexts)\n"
    stide_path
    (Seq_trie.distinct (Stide.trie stide_model) window)
    markov_path
    (Markov.contexts markov_model);

  (* 4. Later: load the stide model and monitor a live stream online. *)
  let restored = Model_io.load_stide_file stide_path in
  let monitor =
    Online.create
      (Trained.train (Registry.find_exn "stide") ~window reloaded.Suite.training)
      ()
  in
  Printf.printf "restored stide model has %d sequences (same as trained: %s)\n"
    (Seq_trie.distinct (Stide.trie restored) window)
    (if
       Seq_trie.distinct (Stide.trie restored) window
       = Seq_trie.distinct (Stide.trie stide_model) window
     then "yes"
     else "NO");

  (* Feed the attack stream of one suite cell through the monitor. *)
  let test = Suite.stream reloaded ~anomaly_size:5 ~window in
  let trace = test.Suite.injection.Injector.trace in
  let incident_count = ref 0 in
  for i = 0 to Trace.length trace - 1 do
    List.iter
      (function
        | Online.Incident_opened at ->
            incr incident_count;
            Printf.printf "live incident opened at stream position %d\n" at
        | Online.Incident_closed incident ->
            Format.printf "live %a@." Incident.pp incident
        | Online.Window_scored _ -> ())
      (Online.feed monitor (Trace.get trace i))
  done;
  List.iter
    (function
      | Online.Incident_closed incident -> Format.printf "flushed %a@." Incident.pp incident
      | Online.Incident_opened _ | Online.Window_scored _ -> ())
    (Online.flush monitor);
  Printf.printf
    "ground truth: anomaly of size 5 at position %d — %d incident(s) raised\n"
    test.Suite.injection.Injector.position !incident_count
