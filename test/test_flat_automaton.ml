(* Trie-vs-automaton equivalence: the compiled flat-automaton fast
   path must be behaviourally invisible.  Bit-identical Response items
   from the compiled loop ([Detector.compiled_score_range]),
   bit-identical Online event streams, and a flat-binary mmap roundtrip
   that scores exactly like train-then-score. *)

open Seqdiv_stream
open Seqdiv_synth
open Seqdiv_core
open Seqdiv_detectors
open Seqdiv_test_support

let compiled_detectors = [ "stide"; "tstide"; "markov" ]

let bits = Int64.bits_of_float

let items_bit_equal a b =
  Array.length a.Response.items = Array.length b.Response.items
  && Array.for_all2
       (fun (x : Response.item) (y : Response.item) ->
         x.Response.start = y.Response.start
         && x.Response.cover = y.Response.cover
         && Int64.equal (bits x.Response.score) (bits y.Response.score))
       a.Response.items b.Response.items

let event_bit_equal a b =
  match (a, b) with
  | Online.Window_scored x, Online.Window_scored y ->
      x.Response.start = y.Response.start
      && x.Response.cover = y.Response.cover
      && Int64.equal (bits x.Response.score) (bits y.Response.score)
  | Online.Incident_opened x, Online.Incident_opened y -> x = y
  | Online.Incident_closed x, Online.Incident_closed y ->
      x.Incident.first_start = y.Incident.first_start
      && x.Incident.last_start = y.Incident.last_start
      && x.Incident.cover_from = y.Incident.cover_from
      && x.Incident.cover_to = y.Incident.cover_to
      && x.Incident.alarms = y.Incident.alarms
      && Int64.equal (bits x.Incident.peak_score) (bits y.Incident.peak_score)
  | _ -> false

let events_bit_equal a b =
  List.length a = List.length b && List.for_all2 event_bit_equal a b

(* The compiled loop against the model's own trie descent, bit for bit:
   over the whole trace, and from [lo = 1] (warm-up from a later
   start). *)
let compiled_matches_descent trained scorer probe =
  let hi = Trace.length probe - Trained.window trained in
  let compiled ~lo =
    Detector.compiled_score_range scorer ~detector:(Trained.name trained)
      probe ~lo ~hi
  in
  items_bit_equal (Trained.score trained probe) (compiled ~lo:0)
  && (hi < 1
     || items_bit_equal
          (Trained.score_range trained probe ~lo:1 ~hi)
          (compiled ~lo:1))

(* {1 Automaton invariant on a hand-built model} *)

let test_state_depth_invariant () =
  (* After feeding the training trace itself, every position from the
     first completed window on must land on a depth-[window] state
     (that window was recorded); an unseen symbol run must not. *)
  let window = 3 in
  let train = [ 0; 1; 2; 3; 4; 0; 1; 2; 3 ] in
  let trained =
    Trained.train (Registry.find_exn "stide") ~window (trace8 train)
  in
  let scorer =
    match Trained.compile trained with
    | Some s -> s
    | None -> Alcotest.fail "stide must compile"
  in
  let auto = Flat_automaton.automaton scorer in
  Alcotest.(check int) "depth" window (Flat_automaton.depth auto);
  Alcotest.(check int) "alphabet" 8 (Flat_automaton.alphabet_size auto);
  let state = ref Flat_automaton.start in
  List.iteri
    (fun i s ->
      state := Flat_automaton.step auto !state s;
      if i >= window - 1 then
        Alcotest.(check int)
          (Printf.sprintf "full depth at %d" i)
          window
          (Flat_automaton.state_depth auto !state))
    train;
  (* Symbol 7 never occurs in training: depth collapses to 0 and stays
     below the window while the unseen suffix persists. *)
  state := Flat_automaton.step auto !state 7;
  Alcotest.(check int) "unseen symbol resets" 0
    (Flat_automaton.state_depth auto !state);
  state := Flat_automaton.step auto !state 0;
  state := Flat_automaton.step auto !state 1;
  Alcotest.(check bool) "recovers along recorded path" true
    (Flat_automaton.state_depth auto !state = 2)

let test_out_of_range_symbol_is_reset () =
  let trained =
    Trained.train (Registry.find_exn "stide") ~window:2 (trace8 [ 0; 1; 0 ])
  in
  let scorer = Option.get (Trained.compile trained) in
  let auto = Flat_automaton.automaton scorer in
  let s = Flat_automaton.step auto Flat_automaton.start 0 in
  Alcotest.(check int) "negative" 0 (Flat_automaton.step auto s (-1));
  Alcotest.(check int) "too large" 0 (Flat_automaton.step auto s 8)

(* {1 qcheck: batch scoring bit-identity, alphabets 2..300 } *)

type case = {
  alphabet_size : int;
  window : int;
  train : int list;
  probe : int list;
}

let case_gen ~max_symbol =
  QCheck.Gen.(
    int_range 2 300 >>= fun alphabet_size ->
    int_range 2 15 >>= fun window ->
    let sym = int_bound (Stdlib.min alphabet_size max_symbol - 1) in
    list_size (int_range (window + 1) 120) sym >>= fun train ->
    list_size (int_range 0 120) sym >>= fun probe ->
    return { alphabet_size; window; train; probe })

let case_print c =
  Printf.sprintf "{k=%d; w=%d; train=[%s]; probe=[%s]}" c.alphabet_size
    c.window
    (String.concat ";" (List.map string_of_int c.train))
    (String.concat ";" (List.map string_of_int c.probe))

let case_arb ~max_symbol =
  QCheck.make ~print:case_print (case_gen ~max_symbol)

let trace_of c symbols = Trace.of_list (Alphabet.make c.alphabet_size) symbols

let batch_bit_identical =
  qcheck ~count:150 "score: trie path = compiled path (bitwise)"
    (case_arb ~max_symbol:max_int)
    (fun c ->
      let training = trace_of c c.train and probe = trace_of c c.probe in
      List.for_all
        (fun name ->
          let trained =
            Trained.train (Registry.find_exn name) ~window:c.window training
          in
          compiled_matches_descent trained
            (Option.get (Trained.compile trained))
            probe)
        compiled_detectors)

(* {1 qcheck: Online event-stream bit-identity } *)

let online_bit_identical =
  (* The reference Window_slide path validates symbols against an
     ad-hoc 255-symbol alphabet, so streams stay within 0..254 here;
     alphabets still range over 2..300. *)
  qcheck ~count:120 "online: automaton events = window-rescore events"
    (case_arb ~max_symbol:255)
    (fun c ->
      let training = trace_of c c.train in
      List.for_all
        (fun name ->
          let trained =
            Trained.train (Registry.find_exn name) ~window:c.window training
          in
          let fast = Online.create trained () in
          let slow = Online.create trained ~compile:false () in
          List.for_all
            (fun s ->
              events_bit_equal (Online.feed fast s) (Online.feed slow s))
            c.probe
          && events_bit_equal (Online.flush fast) (Online.flush slow)
          && Online.position fast = Online.position slow
          && List.length (Online.incidents fast)
             = List.length (Online.incidents slow))
        compiled_detectors)

(* {1 qcheck: the quiet run = a loop of step and state_alarms } *)

(* What [run_quiet] must do, one [step] and one [state_alarms] at a
   time: the index it stops at and the state it leaves. *)
let rec quiet_reference auto scorer ~threshold ~below symbols i stop state =
  if i >= stop then (i, state)
  else
    let s = symbols.(i) in
    if s < 0 || s >= below || s >= Flat_automaton.alphabet_size auto then
      (i, state)
    else
      let next = Flat_automaton.step auto state s in
      if Flat_automaton.state_alarms scorer next threshold then (i, state)
      else
        quiet_reference auto scorer ~threshold ~below symbols (i + 1) stop
          next

let quiet_run_matches_steps =
  (* Every seventh symbol of the probe is pushed out of the alphabet
     (below 0, or at or past it), and [below] cuts some alphabets short,
     so runs stop on symbols as well as on alarming states. *)
  qcheck ~count:100 "run_quiet = step and state_alarms"
    (case_arb ~max_symbol:max_int)
    (fun c ->
      let training = trace_of c c.train in
      let symbols =
        Array.of_list
          (List.mapi
             (fun i s ->
               if i mod 7 <> 6 then s
               else if i mod 2 = 0 then -1
               else c.alphabet_size + (i mod 3))
             c.probe)
      in
      let n = Array.length symbols in
      List.for_all
        (fun name ->
          let trained =
            Trained.train (Registry.find_exn name) ~window:c.window training
          in
          let scorer = Option.get (Trained.compile trained) in
          let auto = Flat_automaton.automaton scorer in
          (* The state a stream reaches after [symbols.(0 .. pos - 1)]. *)
          let state_at pos =
            let rec go i state =
              if i >= pos then state
              else go (i + 1) (Flat_automaton.step auto state symbols.(i))
            in
            go 0 Flat_automaton.start
          in
          List.for_all
            (fun threshold ->
              List.for_all
                (fun below ->
                  List.for_all
                    (fun pos ->
                      List.for_all
                        (fun stop ->
                          let state = state_at pos in
                          let cursor = { Flat_automaton.scorer; state } in
                          let j =
                            Flat_automaton.run_quiet cursor ~threshold ~below
                              symbols ~pos ~stop
                          in
                          (j, cursor.Flat_automaton.state)
                          = quiet_reference auto scorer ~threshold ~below
                              symbols pos stop state)
                        [ pos; (pos + n) / 2; n ])
                    [ 0; n / 3; n / 2 ])
                [ 255; c.alphabet_size; 3 ])
            [ 0.0; 0.5; Trained.alarm_threshold trained; 2.0 ])
        compiled_detectors)

(* {1 Flat-binary roundtrip: mmap-load then score = train-then-score } *)

let with_temp_file f =
  let path = Filename.temp_file "seqdiv" ".flat" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let probe_trace () =
  let suite = tiny_suite () in
  let s = Suite.stream suite ~anomaly_size:4 ~window:5 in
  s.Suite.injection.Injector.trace

let test_flat_roundtrip () =
  let suite = tiny_suite () in
  let probe = probe_trace () in
  List.iter
    (fun name ->
      let trained =
        Trained.train (Registry.find_exn name) ~window:5 suite.Suite.training
      in
      let scorer = Option.get (Trained.compile trained) in
      with_temp_file (fun path ->
          Model_io.save_flat_file path ~detector:name
            ~alarm_threshold:(Trained.alarm_threshold trained)
            scorer;
          let flat = Model_io.load_flat_file path in
          Alcotest.(check string) "detector" name flat.Model_io.flat_detector;
          Alcotest.(check int) "window" 5 flat.Model_io.flat_window;
          Alcotest.(check bool) "threshold bits" true
            (Int64.equal
               (bits (Trained.alarm_threshold trained))
               (bits flat.Model_io.flat_alarm_threshold));
          (* Scoring through the mmap-loaded tables must equal a fresh
             train-then-score, bit for bit. *)
          Alcotest.(check bool)
            (name ^ ": loaded scorer bit-identical")
            true
            (compiled_matches_descent trained flat.Model_io.flat_scorer probe);
          (* And a detector-free deployment monitor built straight from
             the file agrees with one around the in-memory model. *)
          let from_file =
            Online.of_scorer flat.Model_io.flat_scorer
              ~threshold:flat.Model_io.flat_alarm_threshold
          in
          let from_model = Online.create trained () in
          Array.iter
            (fun s ->
              Alcotest.(check bool) "online events" true
                (events_bit_equal (Online.feed from_file s)
                   (Online.feed from_model s)))
            (Trace.to_array probe)))
    compiled_detectors

let () =
  Alcotest.run "flat_automaton"
    [
      ( "automaton",
        [
          Alcotest.test_case "state-depth invariant" `Quick
            test_state_depth_invariant;
          Alcotest.test_case "out-of-range symbols" `Quick
            test_out_of_range_symbol_is_reset;
        ] );
      ( "equivalence",
        [ batch_bit_identical; online_bit_identical; quiet_run_matches_steps ]
      );
      ( "deployment",
        [ Alcotest.test_case "flat roundtrip" `Quick test_flat_roundtrip ] );
    ]
