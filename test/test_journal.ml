(* The run journal's promises: what it records it gives back, a torn
   tail never loses the valid prefix, a journal from a different run is
   refused, and a resumed run is byte-identical to a fresh one. *)

open Seqdiv_synth
open Seqdiv_core
open Seqdiv_detectors
open Seqdiv_report

let with_path f =
  let path = Filename.temp_file "seqdiv-test-journal" ".log" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let entry ~detector ~window ~anomaly_size outcome =
  { Journal.seed = 42; detector; window; anomaly_size; outcome }

let sample_entries =
  [
    entry ~detector:"stide" ~window:4 ~anomaly_size:2 (Outcome.Capable 0.75);
    entry ~detector:"stide" ~window:5 ~anomaly_size:2 (Outcome.Weak 0.25);
    entry ~detector:"markov" ~window:4 ~anomaly_size:3 Outcome.Blind;
  ]

(* The empty context is a valid run description too: its line is the
   bare "context " prefix. *)
let test_roundtrip () =
  List.iter
    (fun context ->
      with_path (fun path ->
          let j = Journal.start ~context path in
          List.iter (Journal.record j) sample_entries;
          Journal.flush j;
          let j' = Journal.start ~resume:true ~context path in
          Alcotest.(check int) "all entries recovered"
            (List.length sample_entries)
            (Journal.recovered j');
          Alcotest.(check int) "no torn lines" 0 (Journal.dropped_lines j');
          List.iter
            (fun e ->
              match
                Journal.lookup j' ~seed:e.Journal.seed
                  ~detector:e.Journal.detector ~window:e.Journal.window
                  ~anomaly_size:e.Journal.anomaly_size
              with
              | Some o ->
                  Alcotest.(check bool)
                    (Printf.sprintf "outcome for %s w=%d" e.Journal.detector
                       e.Journal.window)
                    true
                    (Outcome.equal o e.Journal.outcome)
              | None -> Alcotest.fail "recorded entry missing after resume")
            sample_entries))
    [ "ctx a=1"; "" ]

let test_flush_idempotent_and_atomic () =
  with_path (fun path ->
      let j = Journal.start ~context:"ctx" path in
      List.iter (Journal.record j) sample_entries;
      Journal.flush j;
      let first = In_channel.with_open_bin path In_channel.input_all in
      Journal.flush j (* clean: must not rewrite *);
      let second = In_channel.with_open_bin path In_channel.input_all in
      Alcotest.(check string) "clean flush rewrites nothing" first second;
      Alcotest.(check bool) "no tmp file left behind" false
        (Sys.file_exists (path ^ ".tmp")))

let test_torn_tail_recovered () =
  with_path (fun path ->
      let j = Journal.start ~context:"ctx" path in
      List.iter (Journal.record j) sample_entries;
      Journal.flush j;
      (* Tear the file mid-way through the final line, as a kill during
         a (non-atomic) write would. *)
      let contents = In_channel.with_open_bin path In_channel.input_all in
      let torn = String.sub contents 0 (String.length contents - 10) in
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc torn);
      let j' = Journal.start ~resume:true ~context:"ctx" path in
      Alcotest.(check int) "valid prefix recovered"
        (List.length sample_entries - 1)
        (Journal.recovered j');
      Alcotest.(check int) "torn line counted" 1 (Journal.dropped_lines j'))

let test_context_mismatch_refused () =
  with_path (fun path ->
      let j = Journal.start ~context:"seed=1 alphabet=8" path in
      List.iter (Journal.record j) sample_entries;
      Journal.flush j;
      match Journal.start ~resume:true ~context:"seed=2 alphabet=8" path with
      | _ -> Alcotest.fail "expected Journal.Corrupt"
      | exception Journal.Corrupt _ -> ())

let test_bad_header_refused () =
  with_path (fun path ->
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc "not a journal\n");
      match Journal.start ~resume:true ~context:"ctx" path with
      | _ -> Alcotest.fail "expected Journal.Corrupt"
      | exception Journal.Corrupt _ -> ())

let test_failed_outcomes_rejected () =
  with_path (fun path ->
      let j = Journal.start ~context:"ctx" path in
      let fault =
        Fault.of_exn ~attempts:1 Exit (Printexc.get_raw_backtrace ())
      in
      match
        Journal.record j
          (entry ~detector:"stide" ~window:4 ~anomaly_size:2
             (Outcome.Failed fault))
      with
      | _ -> Alcotest.fail "Failed outcomes must not be journalled"
      | exception Invalid_argument _ -> ())

(* --- resume over the real engine --------------------------------------- *)

let suite_cache = ref None

let suite () =
  match !suite_cache with
  | Some s -> s
  | None ->
      let s =
        Suite.build
          {
            (Suite.scaled_params ~train_len:30_000 ~background_len:1_500) with
            Suite.dw_max = 6;
          }
      in
      suite_cache := Some s;
      s

let detectors () = List.map Registry.find_exn [ "stide"; "tstide"; "markov"; "lnb" ]
let context = "test-context"

let renderings maps =
  String.concat "\n" (List.map Ascii_map.render maps)

let test_resume_byte_identical () =
  (* Interrupt after two of four detectors (the per-detector flush makes
     that the natural crash boundary), then resume with the full list at
     jobs 1 and 4: identical bytes to an unjournalled fresh run. *)
  let fresh =
    renderings
      (Experiment.all_maps ~engine:(Engine.create ~jobs:1 ()) (suite ())
         (detectors ()))
  in
  List.iter
    (fun jobs ->
      with_path (fun path ->
          let j = Journal.start ~context path in
          let partial =
            match detectors () with d :: d' :: _ -> [ d; d' ] | _ -> []
          in
          ignore
            (Experiment.all_maps
               ~engine:(Engine.create ~jobs ())
               ~journal:j (suite ()) partial);
          let j' = Journal.start ~resume:true ~context path in
          Alcotest.(check bool)
            (Printf.sprintf "jobs=%d: something to resume from" jobs)
            true
            (Journal.recovered j' > 0);
          let e = Engine.create ~jobs () in
          let maps =
            Experiment.all_maps ~engine:e ~journal:j' (suite ()) (detectors ())
          in
          let s = Engine.stats e in
          Alcotest.(check int)
            (Printf.sprintf "jobs=%d: journalled cells not re-executed" jobs)
            (Journal.recovered j') s.Engine.cells_resumed;
          Alcotest.(check string)
            (Printf.sprintf "jobs=%d: byte-identical to fresh run" jobs)
            fresh (renderings maps)))
    [ 1; 4 ]

let test_resume_after_torn_tail () =
  with_path (fun path ->
      let j = Journal.start ~context path in
      ignore
        (Experiment.all_maps ~engine:(Engine.create ()) ~journal:j (suite ())
           (detectors ()));
      let contents = In_channel.with_open_bin path In_channel.input_all in
      let torn = String.sub contents 0 (String.length contents - 25) in
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc torn);
      let j' = Journal.start ~resume:true ~context path in
      Alcotest.(check bool) "tail dropped" true (Journal.dropped_lines j' > 0);
      let fresh =
        renderings
          (Experiment.all_maps ~engine:(Engine.create ()) (suite ())
             (detectors ()))
      in
      let maps =
        Experiment.all_maps ~engine:(Engine.create ()) ~journal:j' (suite ())
          (detectors ())
      in
      Alcotest.(check string) "torn journal still resumes byte-identically"
        fresh (renderings maps))

let test_failed_cells_retried_on_resume () =
  (* Fatal chaos fails some cells; they are never journalled, so a
     resume without chaos heals exactly those cells and the final maps
     match a healthy run. *)
  with_path (fun path ->
      let j = Journal.start ~context path in
      let plan =
        Fault_plan.of_seed ~transient_rate:0.0 ~fatal_rate:0.1 ~seed:5 ()
      in
      let e = Engine.create ~jobs:4 ~fault_plan:plan () in
      let degraded =
        Experiment.all_maps ~engine:e ~journal:j (suite ()) (detectors ())
      in
      let failed =
        List.fold_left
          (fun acc m -> acc + List.length (Performance_map.failed_cells m))
          0 degraded
      in
      Alcotest.(check bool) "chaos failed some cells" true (failed > 0);
      let total =
        List.fold_left (fun acc m -> acc + Performance_map.cell_count m) 0 degraded
      in
      let j' = Journal.start ~resume:true ~context path in
      Alcotest.(check int) "failed cells stayed out of the journal"
        (total - failed) (Journal.recovered j');
      let e' = Engine.create ~jobs:4 () in
      let healed =
        Experiment.all_maps ~engine:e' ~journal:j' (suite ()) (detectors ())
      in
      let fresh =
        renderings
          (Experiment.all_maps ~engine:(Engine.create ()) (suite ())
             (detectors ()))
      in
      Alcotest.(check int) "resume re-executed only the failed cells" failed
        ((Engine.stats e').Engine.score_tasks);
      Alcotest.(check string) "healed run matches a healthy one" fresh
        (renderings healed))

let () =
  Alcotest.run "journal"
    [
      ( "format",
        [
          Alcotest.test_case "roundtrip" `Quick test_roundtrip;
          Alcotest.test_case "flush idempotent" `Quick
            test_flush_idempotent_and_atomic;
          Alcotest.test_case "torn tail recovered" `Quick
            test_torn_tail_recovered;
          Alcotest.test_case "context mismatch refused" `Quick
            test_context_mismatch_refused;
          Alcotest.test_case "bad header refused" `Quick
            test_bad_header_refused;
          Alcotest.test_case "failed outcomes rejected" `Quick
            test_failed_outcomes_rejected;
        ] );
      ( "resume",
        [
          Alcotest.test_case "resume byte-identical" `Slow
            test_resume_byte_identical;
          Alcotest.test_case "resume after torn tail" `Slow
            test_resume_after_torn_tail;
          Alcotest.test_case "failed cells retried on resume" `Slow
            test_failed_cells_retried_on_resume;
        ] );
    ]
