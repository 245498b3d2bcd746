open Seqdiv_stream
open Seqdiv_synth
open Seqdiv_core
open Seqdiv_detectors
open Seqdiv_test_support

let stide_monitor ?threshold () =
  let suite = tiny_suite () in
  let stide =
    Trained.train (Registry.find_exn "stide") ~window:4 suite.Suite.training
  in
  (suite, Online.create stide ?threshold ())

let feed_all monitor symbols =
  List.concat_map (fun s -> Online.feed monitor s) symbols

let windows_scored events =
  List.filter_map
    (function Online.Window_scored i -> Some i | _ -> None)
    events

let test_warmup_emits_nothing () =
  let _, monitor = stide_monitor () in
  Alcotest.(check int) "first window-1 symbols silent" 0
    (List.length (feed_all monitor [ 0; 1; 2 ]));
  Alcotest.(check int) "position tracked" 3 (Online.position monitor)

let test_every_symbol_after_warmup_scores () =
  let _, monitor = stide_monitor () in
  let events = feed_all monitor [ 0; 1; 2; 3; 4; 5 ] in
  Alcotest.(check int) "three windows" 3 (List.length (windows_scored events))

let test_matches_batch_scoring () =
  let suite, monitor = stide_monitor () in
  let test = Suite.stream suite ~anomaly_size:3 ~window:4 in
  let trace = test.Suite.injection.Injector.trace in
  let symbols = Array.to_list (Trace.to_array trace) in
  let events = feed_all monitor symbols in
  let online_scores =
    windows_scored events |> List.map (fun i -> i.Response.score)
  in
  let stide =
    Trained.train (Registry.find_exn "stide") ~window:4 suite.Suite.training
  in
  let batch = Trained.score stide trace in
  let batch_scores =
    Array.to_list (Array.map (fun i -> i.Response.score) batch.Response.items)
  in
  Alcotest.(check int) "same count" (List.length batch_scores)
    (List.length online_scores);
  List.iter2
    (fun a b -> Alcotest.(check (float 0.0)) "same score" a b)
    batch_scores online_scores

let test_incident_lifecycle () =
  let suite, monitor = stide_monitor () in
  let test = Suite.stream suite ~anomaly_size:3 ~window:4 in
  let trace = test.Suite.injection.Injector.trace in
  let events = feed_all monitor (Array.to_list (Trace.to_array trace)) in
  let opened =
    List.filter (function Online.Incident_opened _ -> true | _ -> false) events
  in
  let closed =
    List.filter_map
      (function Online.Incident_closed i -> Some i | _ -> None)
      events
  in
  Alcotest.(check int) "one incident opened" 1 (List.length opened);
  Alcotest.(check int) "one incident closed" 1 (List.length closed);
  List.iter
    (fun incident ->
      Alcotest.(check bool) "incident covers the anomaly" true
        (Incident.matches_ground_truth incident
           ~position:test.Suite.injection.Injector.position ~size:3))
    closed;
  Alcotest.(check int) "recorded" 1 (List.length (Online.incidents monitor))

let test_flush_closes_open_incident () =
  let _, monitor = stide_monitor () in
  (* Feed a foreign window at the very end of the stream: the incident
     stays open until flush. *)
  let events = feed_all monitor [ 0; 1; 2; 3; 0; 0; 0; 0 ] in
  let closed_during =
    List.filter (function Online.Incident_closed _ -> true | _ -> false) events
  in
  (* The all-zeros windows are foreign, so an incident opened; it only
     closes on flush. *)
  Alcotest.(check int) "not closed during stream" 0 (List.length closed_during);
  let flushed = Online.flush monitor in
  Alcotest.(check int) "flush closes" 1 (List.length flushed)

let test_clean_stream_no_incidents () =
  let suite, monitor = stide_monitor () in
  let bg = Generator.background suite.Suite.alphabet ~len:200 ~phase:0 in
  let events = feed_all monitor (Array.to_list (Trace.to_array bg)) in
  Alcotest.(check int) "no incidents" 0
    (List.length
       (List.filter
          (function Online.Incident_opened _ -> true | _ -> false)
          events));
  Alcotest.(check int) "flush finds nothing" 0 (List.length (Online.flush monitor))

let test_threshold_override () =
  let suite = tiny_suite () in
  let lnb =
    Trained.train (Registry.find_exn "lnb") ~window:4 suite.Suite.training
  in
  (* L&B never reaches 1; with a lowered threshold the monitor fires. *)
  let strict = Online.create lnb () in
  let lenient = Online.create lnb ~threshold:0.2 () in
  let symbols = [ 0; 1; 2; 3; 0; 0; 0; 0; 4; 5; 6; 7 ] in
  let fired monitor =
    feed_all monitor symbols
    |> List.exists (function Online.Incident_opened _ -> true | _ -> false)
  in
  Alcotest.(check bool) "strict silent" false (fired strict);
  Alcotest.(check bool) "lenient fires" true (fired lenient)

(* {1 of_scorer edge cases (the serve layer's construction path)} *)

let compiled_stide () =
  let suite = tiny_suite () in
  let stide =
    Trained.train (Registry.find_exn "stide") ~window:4 suite.Suite.training
  in
  let scorer =
    match Trained.compile stide with
    | Some scorer -> scorer
    | None -> Alcotest.fail "stide must compile"
  in
  (scorer, Trained.alarm_threshold stide)

let test_of_scorer_short_stream () =
  (* Fewer symbols than one window: no window ever completes, so no
     events — and flush finds nothing to close. *)
  let scorer, threshold = compiled_stide () in
  let monitor = Online.of_scorer scorer ~threshold in
  let events = feed_all monitor [ 0; 1; 2 ] in
  Alcotest.(check int) "silent below one window" 0 (List.length events);
  Alcotest.(check int) "flush finds nothing" 0
    (List.length (Online.flush monitor));
  Alcotest.(check int) "position still tracked" 3 (Online.position monitor)

let test_of_scorer_stream_ends_mid_incident () =
  (* A foreign run at the very end of the stream: the incident is still
     open when input stops.  Only flush makes it observable; the closed
     incident must cover through the final window. *)
  let scorer, threshold = compiled_stide () in
  let monitor = Online.of_scorer scorer ~threshold in
  let events = feed_all monitor [ 0; 1; 2; 3; 0; 0; 0; 0 ] in
  Alcotest.(check bool) "incident opened" true
    (List.exists
       (function Online.Incident_opened _ -> true | _ -> false)
       events);
  Alcotest.(check bool) "not closed while open-ended" false
    (List.exists
       (function Online.Incident_closed _ -> true | _ -> false)
       events);
  Alcotest.(check int) "invisible before flush" 0
    (List.length (Online.incidents monitor));
  (match Online.flush monitor with
  | [ Online.Incident_closed incident ] ->
      Alcotest.(check int) "covers the last window" 7
        incident.Incident.cover_to
  | _ -> Alcotest.fail "flush must close exactly the open incident");
  Alcotest.(check int) "recorded after flush" 1
    (List.length (Online.incidents monitor));
  Alcotest.(check int) "second flush is a no-op" 0
    (List.length (Online.flush monitor))

let test_of_scorer_threshold_exactly_at_score () =
  (* The alarm predicate is [score >= threshold]: a window scoring
     exactly the threshold alarms; just above it stays silent. *)
  let scorer, _ = compiled_stide () in
  let symbols = [ 0; 1; 2; 3; 0; 0; 0; 0 ] in
  let foreign_score =
    let probe = Online.of_scorer scorer ~threshold:Float.max_float in
    feed_all probe symbols
    |> List.filter_map (function
         | Online.Window_scored i -> Some i.Response.score
         | _ -> None)
    |> List.fold_left Float.max neg_infinity
  in
  Alcotest.(check bool) "stream has a scoring window" true
    (foreign_score > 0.0);
  let fired threshold =
    let monitor = Online.of_scorer scorer ~threshold in
    feed_all monitor symbols
    |> List.exists (function Online.Incident_opened _ -> true | _ -> false)
  in
  Alcotest.(check bool) "score = threshold alarms" true (fired foreign_score);
  Alcotest.(check bool) "threshold just above is silent" false
    (fired (foreign_score +. epsilon_float *. foreign_score *. 2.0 +. Float.min_float))

let test_snapshot_restore_roundtrip () =
  (* Cut a stream anywhere; restoring the snapshot must continue with
     the same events as the uninterrupted monitor. *)
  let scorer, threshold = compiled_stide () in
  let symbols = [ 0; 1; 2; 3; 0; 0; 0; 0; 4; 5; 6; 7; 0; 1; 2; 3 ] in
  let straight = Online.of_scorer scorer ~threshold in
  let all_events = feed_all straight symbols in
  let cut = 7 in
  let first = Online.of_scorer scorer ~threshold in
  let head_events = feed_all first (List.filteri (fun i _ -> i < cut) symbols) in
  let snap =
    match Online.snapshot first with
    | Some snap -> snap
    | None -> Alcotest.fail "automaton monitors must snapshot"
  in
  let second = Online.restore scorer ~threshold snap in
  Alcotest.(check int) "position restored" (Online.position first)
    (Online.position second);
  let tail_events =
    feed_all second (List.filteri (fun i _ -> i >= cut) symbols)
  in
  Alcotest.(check int) "same event count" (List.length all_events)
    (List.length (head_events @ tail_events));
  Alcotest.(check int) "same final incidents"
    (List.length (Online.flush straight))
    (List.length (Online.flush second))

let test_restore_rejects_garbage () =
  let scorer, threshold = compiled_stide () in
  let bad =
    {
      Online.snap_consumed = 4;
      snap_state = max_int;
      snap_open = None;
      snap_adaptive = None;
    }
  in
  match Online.restore scorer ~threshold bad with
  | _ -> Alcotest.fail "out-of-range state accepted"
  | exception Invalid_argument _ -> ()

(* {1 Adaptive thresholding through the monitor} *)

let adaptive_cfg ~initial =
  (* Small warmup/refresh so the controller moves within a short test
     stream. *)
  Adaptive_threshold.config ~budget:0.1 ~warmup:4 ~refresh:2 ~initial ()

let mixed_symbols =
  (* Background cycles with two foreign bursts: the score stream holds
     both clusters, so the sketch fills and the threshold moves. *)
  let rec repeat n xs = if n = 0 then [] else xs @ repeat (n - 1) xs in
  repeat 3 [ 0; 1; 2; 3 ]
  @ [ 0; 0; 0; 0 ]
  @ repeat 4 [ 0; 1; 2; 3 ]
  @ [ 5; 5; 5; 5 ]
  @ repeat 3 [ 0; 1; 2; 3 ]

let test_adaptive_snapshot_restore () =
  (* Kill/resume with adaptive thresholding: the snapshot carries the
     controller (sketch included), so the restored monitor makes the
     same decisions AND lands in bit-identical controller state. *)
  let scorer, threshold = compiled_stide () in
  let cfg = adaptive_cfg ~initial:0.5 in
  let straight = Online.of_scorer ~adaptive:cfg scorer ~threshold in
  let all_events = feed_all straight mixed_symbols in
  Alcotest.(check bool) "threshold moved during the stream" true
    (Online.current_threshold straight <> 0.5);
  let cut = 19 in
  let first = Online.of_scorer ~adaptive:cfg scorer ~threshold in
  let head =
    feed_all first (List.filteri (fun i _ -> i < cut) mixed_symbols)
  in
  let snap =
    match Online.snapshot first with
    | Some snap -> snap
    | None -> Alcotest.fail "automaton monitors must snapshot"
  in
  (match snap.Online.snap_adaptive with
  | Some token ->
      Alcotest.(check bool) "controller token present" true
        (String.length token > 0)
  | None -> Alcotest.fail "adaptive snapshot must carry the controller");
  let second = Online.restore ~adaptive:cfg scorer ~threshold snap in
  let tail =
    feed_all second (List.filteri (fun i _ -> i >= cut) mixed_symbols)
  in
  Alcotest.(check int) "same event count" (List.length all_events)
    (List.length (head @ tail));
  let scores events =
    windows_scored events |> List.map (fun i -> i.Response.score)
  in
  List.iter2
    (fun a b -> Alcotest.(check (float 0.0)) "same score" a b)
    (scores all_events)
    (scores (head @ tail));
  Alcotest.(check int) "same windows judged" (Online.windows_scored straight)
    (Online.windows_scored second);
  Alcotest.(check int) "same alarm windows" (Online.alarm_windows straight)
    (Online.alarm_windows second);
  Alcotest.(check (float 0.0)) "same final threshold"
    (Online.current_threshold straight)
    (Online.current_threshold second);
  match (Online.snapshot straight, Online.snapshot second) with
  | Some a, Some b ->
      Alcotest.(check (option string)) "bit-identical controller token"
        a.Online.snap_adaptive b.Online.snap_adaptive;
      Alcotest.(check int) "same automaton state" a.Online.snap_state
        b.Online.snap_state
  | _ -> Alcotest.fail "both monitors must snapshot"

let test_adaptive_strictly_above () =
  (* The adaptive rule is strict: a window scoring exactly the
     controller's threshold stays silent (the quantile value can be an
     atom of the score distribution), where the static at-or-above
     rule alarms.  A huge warmup pins the controller at [initial] for
     the whole stream, so only the comparison rule differs. *)
  let scorer, _ = compiled_stide () in
  let symbols = [ 0; 1; 2; 3; 0; 0; 0; 0 ] in
  let top =
    let probe = Online.of_scorer scorer ~threshold:Float.max_float in
    feed_all probe symbols
    |> List.filter_map (function
         | Online.Window_scored i -> Some i.Response.score
         | _ -> None)
    |> List.fold_left Float.max neg_infinity
  in
  Alcotest.(check bool) "stream has a scoring window" true (top > 0.0);
  let fired ?adaptive threshold =
    let monitor = Online.of_scorer ?adaptive scorer ~threshold in
    feed_all monitor symbols
    |> List.exists (function Online.Incident_opened _ -> true | _ -> false)
  in
  let pinned initial =
    Adaptive_threshold.config ~budget:0.1 ~warmup:1_000_000 ~initial ()
  in
  Alcotest.(check bool) "static: score = threshold alarms" true (fired top);
  Alcotest.(check bool) "adaptive: score = threshold is silent" false
    (fired ~adaptive:(pinned top) top);
  Alcotest.(check bool) "adaptive: threshold just below fires" true
    (fired ~adaptive:(pinned (top *. 0.999999)) (top *. 0.999999))

let test_threshold_moves_mid_incident () =
  (* Exactly-at-threshold semantics while the threshold moves
     mid-incident: a long foreign run opens an incident at the learned
     low threshold, then a refresh absorbs the foreign scores
     themselves and re-prices the threshold up to the 1.0 score atom —
     at which point the strict [>] rule stops alarming even though the
     foreign run continues, and the incident closes {e before} the
     stream ends.  (The static at-or-above path would hold the
     incident open to flush.) *)
  let scorer, _ = compiled_stide () in
  let cfg =
    Adaptive_threshold.config ~budget:0.3 ~warmup:4 ~refresh:2 ~initial:0.5 ()
  in
  let monitor = Online.of_scorer ~adaptive:cfg scorer ~threshold:0.5 in
  let symbols =
    (* Clean cycle to get past warmup at threshold 0, then a foreign
       run long enough to straddle several refreshes. *)
    List.init 11 (fun i -> i mod 8) @ List.init 12 (fun _ -> 0)
  in
  let events = feed_all monitor symbols in
  let opened =
    List.filter (function Online.Incident_opened _ -> true | _ -> false) events
  in
  let closed_during =
    List.filter (function Online.Incident_closed _ -> true | _ -> false) events
  in
  Alcotest.(check int) "incident opened" 1 (List.length opened);
  Alcotest.(check int) "incident closed before the stream ended" 1
    (List.length closed_during);
  Alcotest.(check int) "nothing left open at flush" 0
    (List.length (Online.flush monitor));
  (* The close was the re-pricing, not the end of foreign content: the
     threshold ended up at the foreign-score atom. *)
  Alcotest.(check (float 0.0)) "threshold moved to the score atom" 1.0
    (Online.current_threshold monitor)

let test_restore_adaptive_mismatch () =
  (* Restore refuses half-configured adaptive state: the snapshot and
     the supplied configuration must agree about whether a controller
     exists, and the token must parse under that exact configuration. *)
  let scorer, threshold = compiled_stide () in
  let cfg = adaptive_cfg ~initial:0.5 in
  let snap_of monitor =
    ignore (feed_all monitor [ 0; 1; 2; 3; 4 ]);
    match Online.snapshot monitor with
    | Some snap -> snap
    | None -> Alcotest.fail "automaton monitors must snapshot"
  in
  let static_snap = snap_of (Online.of_scorer scorer ~threshold) in
  (match Online.restore ~adaptive:cfg scorer ~threshold static_snap with
  | _ -> Alcotest.fail "static snapshot restored as adaptive"
  | exception Invalid_argument _ -> ());
  let adaptive_snap =
    snap_of (Online.of_scorer ~adaptive:cfg scorer ~threshold)
  in
  (match Online.restore scorer ~threshold adaptive_snap with
  | _ -> Alcotest.fail "adaptive snapshot restored as static"
  | exception Invalid_argument _ -> ());
  (* A different budget means a different sketch target: the token must
     not parse under the foreign configuration. *)
  let other = Adaptive_threshold.config ~budget:0.2 ~initial:0.5 () in
  match Online.restore ~adaptive:other scorer ~threshold adaptive_snap with
  | _ -> Alcotest.fail "foreign-config token accepted"
  | exception Invalid_argument _ -> ()

let prop_online_incidents_match_batch =
  (* The streaming monitor and the batch coalescer must report the same
     incidents for the same trace. *)
  qcheck ~count:25 "online incidents = batch incidents"
    QCheck.(list_of_size Gen.(10 -- 120) (int_bound 7))
    (fun symbols ->
      let suite = tiny_suite () in
      let stide =
        Trained.train (Registry.find_exn "stide") ~window:4
          suite.Suite.training
      in
      let trace = trace8 symbols in
      let batch =
        Incident.of_response (Trained.score stide trace) ~threshold:1.0
      in
      let monitor = Online.create stide () in
      List.iter (fun s -> ignore (Online.feed monitor s)) symbols;
      ignore (Online.flush monitor);
      let online = Online.incidents monitor in
      List.length batch = List.length online
      && List.for_all2
           (fun (a : Incident.t) (b : Incident.t) ->
             a.Incident.first_start = b.Incident.first_start
             && a.Incident.last_start = b.Incident.last_start
             && a.Incident.cover_from = b.Incident.cover_from
             && a.Incident.cover_to = b.Incident.cover_to
             && a.Incident.alarms = b.Incident.alarms)
           batch online)

(* {1 Per symbol, without events} *)

(* The incident events [advance]'s transition bits stand for, rebuilt
   the way a caller does: a close before the open it makes room for. *)
let advance_all monitor symbols =
  List.concat_map
    (fun s ->
      let bits = Online.advance monitor s in
      let closed =
        match Online.last_closed monitor with
        | Some i when bits land Online.closed_bit <> 0 ->
            [ Online.Incident_closed i ]
        | _ -> []
      in
      let opened =
        match Online.open_incident monitor with
        | Some i when bits land Online.opened_bit <> 0 ->
            [ Online.Incident_opened i.Incident.first_start ]
        | _ -> []
      in
      closed @ opened)
    symbols

let incident_events events =
  List.filter
    (function Online.Window_scored _ -> false | _ -> true)
    events

let prop_advance_matches_feed =
  qcheck ~count:100 "advance transitions = feed incident events"
    QCheck.(pair bool (list_of_size Gen.(0 -- 200) (int_bound 7)))
    (fun (adaptive, symbols) ->
      let scorer, threshold = compiled_stide () in
      let adaptive =
        if adaptive then Some (adaptive_cfg ~initial:threshold) else None
      in
      let fed = Online.of_scorer ?adaptive scorer ~threshold in
      let stepped = Online.of_scorer ?adaptive scorer ~threshold in
      incident_events (feed_all fed symbols) = advance_all stepped symbols
      && Online.windows_scored fed = Online.windows_scored stepped
      && Online.alarm_windows fed = Online.alarm_windows stepped
      && Online.flush fed = Online.flush stepped
      && Online.incidents fed = Online.incidents stepped)

(* {1 A run of symbols per call} *)

(* The message of the Invalid_argument that ended [push], if one did. *)
let refusal push =
  match push () with
  | () -> None
  | exception Invalid_argument msg -> Some msg

(* The transitions a caller sees, as (position, bits) for each non-zero
   result, and the refusal that ended the stream. *)
let advance_each monitor symbols =
  let seen = ref [] in
  let refused =
    refusal (fun () ->
        Array.iter
          (fun s ->
            let bits = Online.advance monitor s in
            if bits <> 0 then seen := (Online.position monitor, bits) :: !seen)
          symbols)
  in
  (List.rev !seen, refused)

(* The same stream through [advance_run], in the chunks between
   [cuts], each chunk pushed the way Session_table pushes an event's
   symbols: again from wherever the last call stopped. *)
let advance_runs monitor symbols cuts =
  let seen = ref [] in
  let rec chunk i stop =
    if i < stop then begin
      let before = Online.position monitor in
      let bits = Online.advance_run monitor symbols ~pos:i ~stop in
      let next = i + Online.position monitor - before in
      if bits <> 0 then seen := (Online.position monitor, bits) :: !seen
      else if next <> stop then Alcotest.fail "a run stopped with no bits";
      chunk next stop
    end
  in
  let refused =
    refusal (fun () ->
        List.iter
          (fun (lo, hi) -> chunk lo hi)
          (List.combine (0 :: cuts) (cuts @ [ Array.length symbols ])))
  in
  (List.rev !seen, refused)

type run_case = {
  config : int;  (* 0: the detector's threshold, 1: never alarms, 2: adaptive *)
  stream : int array;
  cuts : int list;
}

let run_case_print c =
  Printf.sprintf "{config=%d; cuts=[%s]; stream=[%s]}" c.config
    (String.concat ";" (List.map string_of_int c.cuts))
    (String.concat ";" (Array.to_list (Array.map string_of_int c.stream)))

(* Streams of training stretches (quiet windows, for the kernel) and
   random stretches over 0..11, past the model's 8-symbol alphabet
   (alarms, incidents, resets to the root); at times one symbol is 255
   or -1. *)
let run_case_gen =
  let training = lazy (Trace.to_array (tiny_suite ()).Suite.training) in
  QCheck.Gen.(
    let stretch =
      frequency
        [
          ( 2,
            map2
              (fun from len ->
                let t = Lazy.force training in
                Array.sub t (from mod (Array.length t - len)) len)
              (int_bound 1_000_000) (int_range 1 400) );
          (1, array_size (int_range 1 30) (int_bound 11));
        ]
    in
    int_bound 2 >>= fun config ->
    list_size (int_range 1 6) stretch >>= fun stretches ->
    let stream = Array.concat stretches in
    let n = Array.length stream in
    opt ~ratio:0.3 (pair (int_bound (n - 1)) (oneofl [ 255; -1 ]))
    >>= fun bad ->
    Option.iter (fun (i, s) -> stream.(i) <- s) bad;
    list_size (int_range 0 8) (int_bound n) >>= fun cuts ->
    return { config; stream; cuts = List.sort_uniq compare cuts })

let prop_advance_run_matches_advance =
  qcheck ~count:300 "advance_run at random cuts = advance per symbol"
    (QCheck.make ~print:run_case_print run_case_gen)
    (fun c ->
      let scorer, threshold = compiled_stide () in
      let monitor () =
        match c.config with
        | 0 -> Online.of_scorer scorer ~threshold
        | 1 -> Online.of_scorer scorer ~threshold:2.0
        | _ ->
            Online.of_scorer ~adaptive:(adaptive_cfg ~initial:threshold) scorer
              ~threshold
      in
      let each = monitor () and runs = monitor () in
      advance_each each c.stream = advance_runs runs c.stream c.cuts
      && Online.position each = Online.position runs
      && Online.open_incident each = Online.open_incident runs
      && Online.last_closed each = Online.last_closed runs
      && Online.windows_scored each = Online.windows_scored runs
      && Online.alarm_windows each = Online.alarm_windows runs
      && Online.snapshot each = Online.snapshot runs)

(* Minor-heap words allocated while advancing [monitor] over
   [symbols]. *)
let advance_words monitor symbols =
  let before = Gc.minor_words () in
  let transitions = ref 0 in
  for i = 0 to Array.length symbols - 1 do
    transitions := !transitions lor Online.advance monitor symbols.(i)
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "no incident transitions" 0 !transitions;
  words

let test_advance_allocates_nothing () =
  (* Training windows never alarm, so every symbol here is a quiet one:
     advancing N symbols and 2N symbols must cost the same. *)
  let suite = tiny_suite () in
  let training = Trace.to_array suite.Suite.training in
  let scorer, threshold = compiled_stide () in
  let monitor = Online.of_scorer scorer ~threshold in
  let n = 4096 in
  ignore (advance_words monitor (Array.sub training 0 64));
  let once = advance_words monitor (Array.sub training 64 n) in
  let twice = advance_words monitor (Array.sub training (64 + n) (2 * n)) in
  Alcotest.(check (float 0.0)) "zero words per symbol" once twice;
  Alcotest.(check int) "windows judged" ((3 * n) + 61)
    (Online.windows_scored monitor)

let test_advance_needs_automaton () =
  let _, monitor = stide_monitor () in
  ignore (Online.advance monitor 0);
  let suite = tiny_suite () in
  let stide =
    Trained.train (Registry.find_exn "stide") ~window:4 suite.Suite.training
  in
  let slide = Online.create stide ~compile:false () in
  match Online.advance slide 0 with
  | _ -> Alcotest.fail "advance must refuse the window-rescoring path"
  | exception Invalid_argument _ -> ()

let () =
  Alcotest.run "online"
    [
      ( "online",
        [
          Alcotest.test_case "warmup" `Quick test_warmup_emits_nothing;
          Alcotest.test_case "scores each window" `Quick
            test_every_symbol_after_warmup_scores;
          Alcotest.test_case "matches batch" `Quick test_matches_batch_scoring;
          Alcotest.test_case "incident lifecycle" `Quick test_incident_lifecycle;
          Alcotest.test_case "flush" `Quick test_flush_closes_open_incident;
          Alcotest.test_case "clean stream" `Quick test_clean_stream_no_incidents;
          Alcotest.test_case "threshold override" `Quick test_threshold_override;
          Alcotest.test_case "of_scorer: short stream" `Quick
            test_of_scorer_short_stream;
          Alcotest.test_case "of_scorer: ends mid-incident" `Quick
            test_of_scorer_stream_ends_mid_incident;
          Alcotest.test_case "of_scorer: threshold boundary" `Quick
            test_of_scorer_threshold_exactly_at_score;
          Alcotest.test_case "snapshot/restore" `Quick
            test_snapshot_restore_roundtrip;
          Alcotest.test_case "restore validation" `Quick
            test_restore_rejects_garbage;
          Alcotest.test_case "adaptive: snapshot/restore" `Quick
            test_adaptive_snapshot_restore;
          Alcotest.test_case "adaptive: strictly above" `Quick
            test_adaptive_strictly_above;
          Alcotest.test_case "adaptive: re-prices mid-incident" `Quick
            test_threshold_moves_mid_incident;
          Alcotest.test_case "adaptive: restore mismatch" `Quick
            test_restore_adaptive_mismatch;
          prop_online_incidents_match_batch;
          prop_advance_matches_feed;
          prop_advance_run_matches_advance;
          Alcotest.test_case "advance: no allocation per symbol" `Quick
            test_advance_allocates_nothing;
          Alcotest.test_case "advance: automaton path only" `Quick
            test_advance_needs_automaton;
        ] );
    ]
