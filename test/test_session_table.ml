(* The serve determinism contract, proven at the Session_table level:
   for ANY interleaved batch stream, the per-session incident log is
   identical to a serial Online replay of that session's symbols —
   whatever the shard count, and across a simulated kill/resume with
   resent batches.  This is the property that makes `seqdiv serve`'s
   output reproducible and its crash recovery byte-exact. *)

open Seqdiv_stream
open Seqdiv_synth
open Seqdiv_core
open Seqdiv_detectors
open Seqdiv_test_support

let scorer_and_threshold =
  lazy
    (let suite = tiny_suite () in
     let stide =
       Trained.train (Registry.find_exn "stide") ~window:4 suite.Suite.training
     in
     let scorer =
       match Trained.compile stide with
       | Some scorer -> scorer
       | None -> Alcotest.fail "stide must compile"
     in
     (scorer, Trained.alarm_threshold stide))

let incident_of_core (i : Incident.t) =
  {
    Frame.first_start = i.Incident.first_start;
    last_start = i.Incident.last_start;
    cover_from = i.Incident.cover_from;
    cover_to = i.Incident.cover_to;
    alarms = i.Incident.alarms;
    peak_score = i.Incident.peak_score;
  }

(* {1 The serial reference}

   One Online monitor per session, events applied in stream order on
   the calling domain — the semantics Session_table must reproduce. *)

let serial_replay ?adaptive ~scorer ~threshold batches =
  let monitors = Hashtbl.create 16 in
  let log = ref [] in
  let emit session = function
    | Online.Window_scored _ -> ()
    | Online.Incident_opened position ->
        log := Frame.Opened { session; position } :: !log
    | Online.Incident_closed incident ->
        log :=
          Frame.Closed { session; incident = incident_of_core incident }
          :: !log
  in
  List.iter
    (fun events ->
      List.iter
        (fun event ->
          match event with
          | Frame.Data { session; symbols } ->
              let monitor =
                match Hashtbl.find_opt monitors session with
                | Some m -> m
                | None ->
                    let m = Online.of_scorer ?adaptive scorer ~threshold in
                    Hashtbl.replace monitors session m;
                    m
              in
              Array.iter
                (fun s -> List.iter (emit session) (Online.feed monitor s))
                symbols
          | Frame.End_of_session { session } -> (
              match Hashtbl.find_opt monitors session with
              | Some monitor ->
                  List.iter (emit session) (Online.flush monitor);
                  Hashtbl.remove monitors session
              | None -> ()))
        events)
    batches;
  List.rev !log

(* Per-session rendered log: the cross-shard comparable form (global
   emission order is sharding-dependent; per-session order is not). *)
let by_session incident_events =
  let t = Hashtbl.create 16 in
  List.iter
    (fun ev ->
      let session =
        match ev with
        | Frame.Opened { session; _ } | Frame.Closed { session; _ } -> session
      in
      let line = Frame.render_incident_event ev in
      Hashtbl.replace t session
        (line :: Option.value ~default:[] (Hashtbl.find_opt t session)))
    incident_events;
  Hashtbl.fold (fun s lines acc -> (s, List.rev lines) :: acc) t []
  |> List.sort compare

let route_events ~shards events =
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
  Array.map List.rev buckets

let sharded_replay ?adaptive ~scorer ~threshold ~shards batches =
  let tables =
    Array.init shards (fun shard ->
        Session_table.create ~scorer ~threshold ?adaptive ~shard ())
  in
  List.concat
    (List.mapi
       (fun batch_id events ->
         let buckets = route_events ~shards events in
         List.concat
           (List.init shards (fun shard ->
                match buckets.(shard) with
                | [] -> []
                | sub -> Session_table.apply tables.(shard) ~batch_id sub)))
       batches)

(* {1 Generators} *)

let gen_event =
  QCheck.Gen.(
    frequency
      [
        ( 6,
          map2
            (fun session symbols ->
              Frame.Data { session; symbols = Array.of_list symbols })
            (int_bound 5)
            (list_size (1 -- 12) (int_bound 7)) );
        (1, map (fun session -> Frame.End_of_session { session }) (int_bound 5));
      ])

let gen_batches =
  QCheck.Gen.(list_size (1 -- 12) (list_size (1 -- 8) gen_event))

let arbitrary_batches =
  QCheck.make
    ~print:(fun batches ->
      Printf.sprintf "%d batches / %d events" (List.length batches)
        (List.fold_left (fun a b -> a + List.length b) 0 batches))
    gen_batches

(* {1 Properties}

   Every determinism property is proven twice: with the static
   threshold and with an adaptive controller per session.  The
   adaptive configuration is deliberately twitchy (tiny warmup and
   refresh) so thresholds move within the short fuzzed streams — the
   regime where a controller that was not byte-exact in the journal,
   or not purely score-driven, would split the logs. *)

let twitchy_adaptive =
  Adaptive_threshold.config ~budget:0.25 ~warmup:4 ~refresh:2 ~initial:0.5 ()

let shard_invariant_prop ?adaptive name =
  qcheck ~count:60 name arbitrary_batches (fun batches ->
      let scorer, threshold = Lazy.force scorer_and_threshold in
      let reference =
        by_session (serial_replay ?adaptive ~scorer ~threshold batches)
      in
      List.for_all
        (fun shards ->
          by_session
            (sharded_replay ?adaptive ~scorer ~threshold ~shards batches)
          = reference)
        [ 1; 2; 4 ])

let prop_shard_invariant =
  shard_invariant_prop "per-session log invariant under shard count"

let prop_shard_invariant_adaptive =
  shard_invariant_prop ~adaptive:twitchy_adaptive
    "adaptive: per-session log invariant under shard count"

let kill_resume_prop ?adaptive name =
  qcheck ~count:40 name arbitrary_batches (fun batches ->
      let scorer, threshold = Lazy.force scorer_and_threshold in
      let shards = 2 in
      let reference =
        by_session (serial_replay ?adaptive ~scorer ~threshold batches)
      in
      let dir = Filename.temp_file "seqdiv-session-table" "" in
      Sys.remove dir;
      Unix.mkdir dir 0o755;
      Fun.protect
        ~finally:(fun () ->
          Array.iter
            (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
            (Sys.readdir dir);
          Unix.rmdir dir)
        (fun () ->
          let journal_path shard =
            Filename.concat dir (Printf.sprintf "shard-%d.journal" shard)
          in
          let context shard = Printf.sprintf "test shard=%d" shard in
          let open_tables ~resume =
            Array.init shards (fun shard ->
                let journal =
                  Shard_journal.start ~resume ~context:(context shard)
                    (journal_path shard)
                in
                Session_table.create ~scorer ~threshold ?adaptive ~journal
                  ~shard ())
          in
          let apply_batch tables batch_id events =
            let buckets = route_events ~shards events in
            List.concat
              (List.init shards (fun shard ->
                   match buckets.(shard) with
                   | [] -> []
                   | sub -> Session_table.apply tables.(shard) ~batch_id sub))
          in
          let batches = Array.of_list batches in
          let n = Array.length batches in
          let cut = Stdlib.max 1 (n / 2) in
          (* Phase 1: the first half of the stream, journalled. *)
          let tables = open_tables ~resume:false in
          let first_half = ref [] and last_applied = ref [] in
          for i = 0 to cut - 1 do
            let evs = apply_batch tables i batches.(i) in
            first_half := evs :: !first_half;
            last_applied := evs
          done;
          let first_half = List.concat (List.rev !first_half) in
          (* Crash: drop the tables, reopen everything from the journals. *)
          let resumed = open_tables ~resume:true in
          (* The client resends its last unacked batch; the journal's
             batch history must answer it verbatim without re-applying. *)
          let resent = apply_batch resumed (cut - 1) batches.(cut - 1) in
          let replays =
            Array.fold_left
              (fun a t -> a + Session_table.batches_replayed t)
              0 resumed
          in
          (* Phase 2: the rest of the stream on the resumed tables. *)
          let second_half = ref [] in
          for i = cut to n - 1 do
            second_half := apply_batch resumed i batches.(i) :: !second_half
          done;
          let second_half = List.concat (List.rev !second_half) in
          let interrupted = by_session (first_half @ second_half) in
          interrupted = reference && replays > 0
          && List.map Frame.render_incident_event resent
             = List.map Frame.render_incident_event !last_applied))

let prop_kill_resume =
  kill_resume_prop "kill/resume + resent batch = uninterrupted run"

let prop_kill_resume_adaptive =
  kill_resume_prop ~adaptive:twitchy_adaptive
    "adaptive: kill/resume + resent batch = uninterrupted run"

(* {1 Unit tests: counters and lifecycle} *)

let test_counters () =
  let scorer, threshold = Lazy.force scorer_and_threshold in
  let table = Session_table.create ~scorer ~threshold ~shard:3 () in
  Alcotest.(check int) "shard recorded" 3 (Session_table.shard table);
  Alcotest.(check int) "empty" 0 (Session_table.sessions_resident table);
  let _ =
    Session_table.apply table ~batch_id:0
      [
        Frame.Data { session = 1; symbols = [| 0; 1; 2; 3; 0 |] };
        Frame.Data { session = 2; symbols = [| 4; 5 |] };
      ]
  in
  Alcotest.(check int) "two sessions" 2 (Session_table.sessions_resident table);
  Alcotest.(check int) "events counted" 2 (Session_table.events_applied table);
  Alcotest.(check int) "symbols counted" 7 (Session_table.symbols_applied table);
  Alcotest.(check int) "one batch" 1 (Session_table.batches_applied table);
  Alcotest.(check bool) "memory estimated" true
    (Session_table.bytes_resident table > 0);
  let _ =
    Session_table.apply table ~batch_id:1
      [ Frame.End_of_session { session = 1 } ]
  in
  Alcotest.(check int) "ended session dropped" 1
    (Session_table.sessions_resident table);
  (* Ending a session the table never saw is a harmless no-op. *)
  let evs =
    Session_table.apply table ~batch_id:2
      [ Frame.End_of_session { session = 99 } ]
  in
  Alcotest.(check int) "unknown end is silent" 0 (List.length evs)

let test_dedup_without_journal () =
  (* Even journal-less tables keep the in-memory history window, so a
     resent batch on a live connection is not applied twice. *)
  let scorer, threshold = Lazy.force scorer_and_threshold in
  let table = Session_table.create ~scorer ~threshold ~shard:0 () in
  let batch = [ Frame.Data { session = 1; symbols = [| 0; 0; 0; 0; 0 |] } ] in
  let first = Session_table.apply table ~batch_id:7 batch in
  let symbols_after = Session_table.symbols_applied table in
  let again = Session_table.apply table ~batch_id:7 batch in
  Alcotest.(check int) "no re-apply" symbols_after
    (Session_table.symbols_applied table);
  Alcotest.(check int) "one replay" 1 (Session_table.batches_replayed table);
  Alcotest.(check bool) "identical answer" true
    (List.map Frame.render_incident_event first
    = List.map Frame.render_incident_event again)

(* {1 The per-symbol path allocates nothing} *)

let test_no_allocation_per_symbol () =
  (* Four resident sessions, each fed the training stream (whose windows
     never alarm) from where its last event stopped.  A batch of 2N
     symbols must allocate exactly what a batch of N does: the batch
     and event overhead is the same, and a quiet symbol costs 0 words. *)
  let scorer, threshold = Lazy.force scorer_and_threshold in
  let training = Trace.to_array (tiny_suite ()).Suite.training in
  let table = Session_table.create ~scorer ~threshold ~shard:0 () in
  let sessions = 4 in
  let cursor = ref 0 in
  let batch len =
    let from = !cursor in
    cursor := from + len;
    List.init sessions (fun session ->
        Frame.Data { session; symbols = Array.sub training from len })
  in
  (* Warm past the 64-batch dedup window, so remembering a batch also
     forgets one, as it does in steady state. *)
  for batch_id = 0 to 79 do
    ignore (Session_table.apply table ~batch_id (batch 8))
  done;
  let words batch_id events =
    let before = Gc.minor_words () in
    let incidents = Session_table.apply table ~batch_id events in
    let words = Gc.minor_words () -. before in
    Alcotest.(check int) "no incidents" 0 (List.length incidents);
    words
  in
  let n = 1024 in
  let once = batch n in
  let twice = batch (2 * n) in
  let once = words 80 once in
  let twice = words 81 twice in
  Alcotest.(check (float 0.0)) "zero words per symbol" once twice;
  Alcotest.(check int) "resident" sessions
    (Session_table.sessions_resident table)

(* {1 The deadline is polled every 1024 symbols of a batch} *)

let test_deadline_stride () =
  (* Each poll reads the virtual clock once and advances it 1 ms, so a
     2 ms budget is spent at the third poll: right after the batch's
     3,072nd symbol, which falls inside its third event.  Session 1's
     alarming symbols make its runs stop early, and the count must
     carry across them and across events. *)
  let scorer, threshold = Lazy.force scorer_and_threshold in
  let training = Trace.to_array (tiny_suite ()).Suite.training in
  let rng = Random.State.make [| 29 |] in
  let alarming =
    Array.init 1500 (fun i ->
        if i mod 100 < 20 then Random.State.int rng 8 else training.(i))
  in
  let events =
    [
      Frame.Data { session = 0; symbols = Array.sub training 0 1000 };
      Frame.Data { session = 1; symbols = alarming };
      Frame.Data { session = 2; symbols = Array.sub training 0 1000 };
      Frame.Data { session = 3; symbols = Array.sub training 0 700 };
    ]
  in
  let table = Session_table.create ~scorer ~threshold ~shard:0 () in
  let clock = Fake_clock.create ~step_ms:1.0 in
  (match
     Seqdiv_util.Deadline.with_deadline
       (Seqdiv_util.Deadline.spec ~clock:(Fake_clock.clock clock) ~budget_ms:2)
       (fun () -> Session_table.apply table ~batch_id:0 events)
   with
  | _ -> Alcotest.fail "the deadline did not fire"
  | exception Seqdiv_util.Deadline.Exceeded 2 -> ());
  (* Window 4: a fresh session's n symbols complete n - 3 windows. *)
  Alcotest.(check int) "windows of the 3,072 symbols stepped"
    ((1000 - 3) + (1500 - 3) + (572 - 3))
    (Session_table.windows_scored table);
  Alcotest.(check int) "sessions touched" 3
    (Session_table.sessions_resident table)

(* {1 Running window and alarm totals} *)

(* What the totals stood for when they were folds: windows/alarms of
   the sessions that ended, plus a sum over the resident monitors.
   [reference] mirrors the table with one monitor per session. *)
let test_running_totals () =
  let scorer, threshold = Lazy.force scorer_and_threshold in
  let rng = Random.State.make [| 13 |] in
  let gen_batch () =
    List.init 6 (fun _ ->
        let session = Random.State.int rng 5 in
        if Random.State.int rng 8 = 0 then Frame.End_of_session { session }
        else
          Frame.Data
            {
              session;
              symbols = Array.init 24 (fun _ -> Random.State.int rng 8);
            })
  in
  let reference = Hashtbl.create 8 in
  let departed = ref (0, 0) in
  let mirror events =
    List.iter
      (function
        | Frame.Data { session; symbols } ->
            let m =
              match Hashtbl.find_opt reference session with
              | Some m -> m
              | None ->
                  let m = Online.of_scorer scorer ~threshold in
                  Hashtbl.replace reference session m;
                  m
            in
            Array.iter (fun s -> ignore (Online.feed m s)) symbols
        | Frame.End_of_session { session } -> (
            match Hashtbl.find_opt reference session with
            | None -> ()
            | Some m ->
                let w, a = !departed in
                departed :=
                  (w + Online.windows_scored m, a + Online.alarm_windows m);
                Hashtbl.remove reference session))
      events
  in
  let expected () =
    Hashtbl.fold
      (fun _ m (w, a) ->
        (w + Online.windows_scored m, a + Online.alarm_windows m))
      reference !departed
  in
  let check table what =
    let w, a = expected () in
    Alcotest.(check int) (what ^ ": windows") w
      (Session_table.windows_scored table);
    Alcotest.(check int) (what ^ ": alarms") a
      (Session_table.alarm_windows table)
  in
  let dir = Filename.temp_file "seqdiv-totals" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "shard-0.journal" in
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove path with Sys_error _ -> ());
      Unix.rmdir dir)
    (fun () ->
      let open_table ~resume =
        let journal = Shard_journal.start ~resume ~context:"totals" path in
        (journal, Session_table.create ~scorer ~threshold ~journal ~shard:0 ())
      in
      let _, table = open_table ~resume:false in
      for batch_id = 0 to 39 do
        let events = gen_batch () in
        ignore (Session_table.apply table ~batch_id events);
        mirror events
      done;
      Alcotest.(check bool) "some sessions ended" true (fst !departed > 0);
      Alcotest.(check bool) "some windows alarmed" true
        (snd (expected ()) > 0);
      check table "before the restore";
      (* Restore: the resident monitors come back from their snapshots
         (static counters restart at the resumable position), and no
         session has departed the new table yet. *)
      let journal, table = open_table ~resume:true in
      Hashtbl.reset reference;
      departed := (0, 0);
      List.iter
        (fun (js : Shard_journal.session_state) ->
          Hashtbl.replace reference js.Shard_journal.js_session
            (Online.restore scorer ~threshold
               {
                 Online.snap_consumed = js.Shard_journal.js_consumed;
                 snap_state = js.Shard_journal.js_state;
                 snap_open =
                   Option.map
                     (fun (i : Frame.incident) ->
                       {
                         Incident.first_start = i.Frame.first_start;
                         last_start = i.Frame.last_start;
                         cover_from = i.Frame.cover_from;
                         cover_to = i.Frame.cover_to;
                         alarms = i.Frame.alarms;
                         peak_score = i.Frame.peak_score;
                       })
                     js.Shard_journal.js_open;
                 snap_adaptive = None;
               }))
        (Shard_journal.sessions journal);
      check table "after the restore";
      for batch_id = 40 to 79 do
        let events = gen_batch () in
        ignore (Session_table.apply table ~batch_id events);
        mirror events
      done;
      check table "after the restore and 40 more batches")

let () =
  Alcotest.run "session_table"
    [
      ( "session_table",
        [
          Alcotest.test_case "counters" `Quick test_counters;
          Alcotest.test_case "dedup" `Quick test_dedup_without_journal;
          Alcotest.test_case "no allocation per symbol" `Quick
            test_no_allocation_per_symbol;
          Alcotest.test_case "deadline every 1024 symbols" `Quick
            test_deadline_stride;
          Alcotest.test_case "running totals" `Quick test_running_totals;
          prop_shard_invariant;
          prop_shard_invariant_adaptive;
          prop_kill_resume;
          prop_kill_resume_adaptive;
        ] );
    ]
