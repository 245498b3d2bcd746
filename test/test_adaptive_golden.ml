(* Golden-file regression tests for adaptive thresholding: the
   controller's trajectory on a seeded drifting corpus and the serve
   health rendering over adaptive session tables, compared
   byte-for-byte against fixtures under [test/golden/].

   Both scenarios are fully deterministic (fixed suite seed, seeded
   drift, fixed batch literals), so any byte of drift is a real
   behaviour change: a moved refresh, a re-priced threshold, a changed
   sketch evolution, or a reworded health line.  The trajectory
   fixture ends with the controller's full serialized state — the
   exact token a shard journal would carry — so the sketch's internal
   evolution is pinned, not just its outputs.

   To update the fixtures after an intentional change, run
   [scripts/promote-golden.sh] and review the diff like any other
   code. *)

open Seqdiv_stream
open Seqdiv_synth
open Seqdiv_core
open Seqdiv_detectors
open Seqdiv_util
open Seqdiv_test_support

let golden_dir =
  match Sys.getenv_opt "SEQDIV_GOLDEN_DIR" with
  | Some d -> d
  | None -> "golden"

let gen_trajectory () =
  (* One controller rides a drifting corpus end to end; after each
     session the counters and the lossless threshold are recorded.
     The drift ramps rare-transition frequency up threefold, so the
     trajectory must show the threshold climbing while the alarm
     counter stays near the budget. *)
  let suite = tiny_suite () in
  let markov =
    Trained.train (Registry.find_exn "markov") ~window:4 suite.Suite.training
  in
  let corpus =
    Session_workload.drifting suite
      (Prng.create ~seed:(suite.Suite.params.Suite.seed + 41))
      ~sessions:6 ~length:600 ~segments:3 ~peak_deviation:0.2
  in
  let ctl =
    Adaptive_threshold.create
      (Adaptive_threshold.config ~budget:0.05 ~warmup:64 ~refresh:16
         ~initial:1.0 ())
  in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    "== adaptive trajectory (markov w4, budget 0.05, drifting) ==\n";
  List.iteri
    (fun i trace ->
      Array.iter
        (fun item -> ignore (Adaptive_threshold.step ctl item.Response.score))
        (Trained.score markov trace).Response.items;
      Buffer.add_string buf
        (Printf.sprintf
           "session=%d windows=%d alarms=%d adjustments=%d threshold=%h\n" i
           (Adaptive_threshold.windows ctl)
           (Adaptive_threshold.alarms ctl)
           (Adaptive_threshold.adjustments ctl)
           (Adaptive_threshold.threshold ctl)))
    (Sessions.traces corpus);
  Buffer.add_string buf
    (Printf.sprintf "state %s\n" (Adaptive_threshold.to_string ctl));
  Buffer.contents buf

let gen_health () =
  (* Two adaptive session tables fed fixed batch literals (clean
     cycles, one foreign burst, one cross-boundary session end), then
     rendered exactly the way `seqdiv serve` answers a health probe —
     windows, alarms and the lossless published threshold per shard. *)
  let suite = tiny_suite () in
  let stide =
    Trained.train (Registry.find_exn "stide") ~window:4 suite.Suite.training
  in
  let scorer =
    match Trained.compile stide with
    | Some scorer -> scorer
    | None -> failwith "stide must compile"
  in
  let threshold = Trained.alarm_threshold stide in
  let adaptive =
    Adaptive_threshold.config ~budget:0.2 ~warmup:4 ~refresh:2 ~initial:0.5 ()
  in
  let shards = 2 in
  let tables =
    Array.init shards (fun shard ->
        Session_table.create ~scorer ~threshold ~adaptive ~shard ())
  in
  let batches =
    [
      [
        Frame.Data { session = 0; symbols = [| 0; 1; 2; 3; 0; 1; 2; 3 |] };
        Frame.Data { session = 1; symbols = [| 0; 1; 2; 3; 0; 0; 0; 0 |] };
        Frame.Data { session = 2; symbols = [| 5; 5; 5; 5; 5; 5 |] };
      ];
      [
        Frame.Data { session = 0; symbols = [| 0; 0; 0; 0; 0; 1; 2; 3 |] };
        Frame.Data
          { session = 3; symbols = [| 0; 1; 2; 3; 4; 5; 6; 7; 0; 1; 2; 3 |] };
        Frame.End_of_session { session = 1 };
      ];
    ]
  in
  List.iteri
    (fun batch_id events ->
      let buckets = Array.make shards [] in
      List.iter
        (fun event ->
          let session =
            match event with
            | Frame.Data { session; _ } | Frame.End_of_session { session } ->
                session
          in
          let shard = Frame.shard_of_session ~shards session in
          buckets.(shard) <- event :: buckets.(shard))
        events;
      Array.iteri
        (fun shard bucket ->
          match List.rev bucket with
          | [] -> ()
          | sub -> ignore (Session_table.apply tables.(shard) ~batch_id sub))
        buckets)
    batches;
  let health =
    {
      Frame.shards =
        Array.to_list
          (Array.map
             (fun table ->
               {
                 Frame.shard = Session_table.shard table;
                 sessions_resident = Session_table.sessions_resident table;
                 events = Session_table.events_applied table;
                 symbols = Session_table.symbols_applied table;
                 batches = Session_table.batches_applied table;
                 rejected = 0;
                 queue_depth = 0;
                 bytes_resident = Session_table.bytes_resident table;
                 busy_ns = 0;
                 p50_batch_ns = 0;
                 p99_batch_ns = 0;
                 restarts = 0;
                 alive = true;
                 degraded = false;
                 retry_after_ms = 0;
                 windows = Session_table.windows_scored table;
                 alarms = Session_table.alarm_windows table;
                 threshold = Session_table.current_threshold table;
               })
             tables);
      connections = 1;
      evictions = 0;
      draining = false;
    }
  in
  "== serve health under adaptive thresholding ==\n"
  ^ Frame.render_health health

let scenarios =
  [ ("adaptive_trajectory", gen_trajectory); ("adaptive_health", gen_health) ]

let fixture name = Filename.concat golden_dir (name ^ ".txt")

let promote () =
  List.iter
    (fun (name, gen) ->
      let path = fixture name in
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc (gen ()));
      Printf.printf "promoted %s\n" path)
    scenarios

let check_golden name gen () =
  let path = fixture name in
  if not (Sys.file_exists path) then
    Alcotest.failf "missing fixture %s — run scripts/promote-golden.sh" path;
  let expected = In_channel.with_open_bin path In_channel.input_all in
  Alcotest.(check string)
    (Printf.sprintf "%s matches %s byte-for-byte" name path)
    expected (gen ())

let () =
  match Sys.getenv_opt "SEQDIV_GOLDEN_PROMOTE" with
  | Some _ -> promote ()
  | None ->
      Alcotest.run "adaptive_golden"
        [
          ( "fixtures",
            List.map
              (fun (name, gen) ->
                Alcotest.test_case name `Slow (check_golden name gen))
              scenarios );
        ]
