(* The generated inputs of the socket workloads: the suite, the served
   model, the session corpora, the batches cut from them, and the
   incident log a serial Online replay expects for each session.

   Everything here is a function of the workload seed and runs before
   any timed phase. *)

open Seqdiv_stream
open Seqdiv_detectors
open Seqdiv_synth
open Seqdiv_core

(* The paper suite at the repository's default reduced scale. *)
let suite_params seed =
  { (Suite.scaled_params ~train_len:150_000 ~background_len:8_000) with
    Suite.seed }

(* --- the served model ---------------------------------------------------- *)

type model = {
  detector : string;
  window : int;
  path : string;
  scorer : Flat_automaton.scorer;
  threshold : float;
  adaptive : Adaptive_threshold.config option;
  serve_args : string list;  (* the model's options for `seqdiv serve` *)
}

(* Train [detector] on the suite's training trace, compile it, save the
   flat model the server loads, and load it back exactly as the server
   does, so the replay steps the same tables. *)
let model ~dir ~suite ~detector ~window ?alarm_budget () =
  let engine = Engine.create () in
  let trained =
    Engine.train engine (Registry.find_exn detector) ~window suite.Suite.training
  in
  let scorer =
    match Trained.compile trained with
    | Some s -> s
    | None -> failwith (detector ^ " has no compiled form")
  in
  let path = Filename.concat dir (Printf.sprintf "%s-w%d.flat" detector window) in
  Model_io.save_flat_file path ~detector
    ~alarm_threshold:(Trained.alarm_threshold trained) scorer;
  let flat = Model_io.load_flat_file path in
  let threshold = flat.Model_io.flat_alarm_threshold in
  let adaptive =
    Option.map
      (fun budget -> Adaptive_threshold.config ~budget ~initial:threshold ())
      alarm_budget
  in
  let serve_args =
    [ "--model"; path ]
    @
    match alarm_budget with
    | None -> []
    | Some b -> [ "--alarm-budget"; Printf.sprintf "%.17g" b ]
  in
  { detector; window; path; scorer = flat.Model_io.flat_scorer; threshold;
    adaptive; serve_args }

(* --- sessions ------------------------------------------------------------ *)

let chunk = 64

let bytes_of_trace t = Bytes.init (Trace.length t) (fun i -> Char.chr (Trace.get t i))

let symbols_of b ~off ~len = Array.init len (fun i -> Char.code (Bytes.get b (off + i)))

(* [n] sessions of [length] symbols; every 4th is an attack carrying a
   minimal foreign sequence injected cleanly for [window]. *)
let corpus ~n ~normal ~attacks =
  let normal = Array.of_list normal and attacks = Array.of_list attacks in
  Array.init n (fun i ->
      if i mod 4 = 3 then bytes_of_trace attacks.(i / 4)
      else bytes_of_trace normal.(i - (i / 4)))

(* The expected incident log of one session fed [symbols] then ended:
   what Session_table emits for it, computed by a serial Online
   monitor with the server's threshold configuration. *)
let expected_log (m : model) ~session feed =
  let monitor = Online.of_scorer ?adaptive:m.adaptive m.scorer ~threshold:m.threshold in
  let out = ref [] in
  let push =
    List.iter (function
      | Online.Window_scored _ -> ()
      | Online.Incident_opened position ->
          out := Frame.Opened { session; position } :: !out
      | Online.Incident_closed i ->
          out :=
            Frame.Closed
              {
                session;
                incident =
                  {
                    Frame.first_start = i.Incident.first_start;
                    last_start = i.Incident.last_start;
                    cover_from = i.Incident.cover_from;
                    cover_to = i.Incident.cover_to;
                    alarms = i.Incident.alarms;
                    peak_score = i.Incident.peak_score;
                  };
              }
            :: !out)
  in
  feed (fun s -> push (Online.feed monitor s));
  push (Online.flush monitor);
  List.rev !out

(* A log rendered line by line, as compared byte for byte. *)
let render ~session events =
  List.map
    (fun e ->
      Frame.render_incident_event
        (match e with
        | Frame.Opened { position; _ } -> Frame.Opened { session; position }
        | Frame.Closed { incident; _ } -> Frame.Closed { session; incident }))
    events

let session_of_incident = function
  | Frame.Opened { session; _ } | Frame.Closed { session; _ } -> session

let symbols_in events =
  List.fold_left
    (fun acc -> function
      | Frame.Data { symbols; _ } -> acc + Array.length symbols
      | Frame.End_of_session _ -> acc)
    0 events

(* --- stream: closed-loop rounds of concurrent sessions ------------------- *)

(* Each round opens [stream_sessions] sessions of [stream_length]
   symbols, interleaves their 64-symbol chunks round-robin, then ends
   them all.  Rounds cycle through a pool of distinct corpora under
   fresh session ids, so the generator never holds more than the pool
   and each pool session's expected log is computed once. *)
let stream_sessions = 64
let stream_length = 4_000
let stream_batch_events = 256
let stream_pool = 8
let stream_chunks = (stream_length + chunk - 1) / chunk
let stream_round_events = (stream_sessions * stream_chunks) + stream_sessions

let stream_batches_per_round =
  (stream_round_events + stream_batch_events - 1) / stream_batch_events

type stream = {
  s_model : model;
  s_corpus : Bytes.t array;  (* stream_pool rounds x stream_sessions *)
  s_expected : Frame.incident_event list array;  (* as session 0 *)
}

let stream ~dir ~suite ~seed =
  let m = model ~dir ~suite ~detector:"stide" ~window:6 () in
  let n = stream_pool * stream_sessions in
  let normal =
    Sessions.traces
      (Session_workload.normal suite
         (Seqdiv_util.Prng.create ~seed:(seed + 9))
         ~sessions:(n - (n / 4)) ~length:stream_length)
  in
  let attacks =
    Sessions.traces
      (Session_workload.anomalous suite ~sessions:(n / 4) ~length:stream_length
         ~anomaly_size:4 ~window:6)
  in
  let corpus = corpus ~n ~normal ~attacks in
  let expected =
    Array.map
      (fun b ->
        expected_log m ~session:0 (fun f ->
            Bytes.iter (fun c -> f (Char.code c)) b))
      corpus
  in
  { s_model = m; s_corpus = corpus; s_expected = expected }

let stream_session_id ~round i = (round * stream_sessions) + i

let stream_corpus_index ~round i =
  ((round mod stream_pool) * stream_sessions) + i

let stream_event st ~round k =
  if k < stream_sessions * stream_chunks then begin
    let c = k / stream_sessions and i = k mod stream_sessions in
    let off = c * chunk in
    let len = Stdlib.min chunk (stream_length - off) in
    Frame.Data
      {
        session = stream_session_id ~round i;
        symbols = symbols_of st.s_corpus.(stream_corpus_index ~round i) ~off ~len;
      }
  end
  else
    Frame.End_of_session
      { session = stream_session_id ~round (k - (stream_sessions * stream_chunks)) }

(* Batch [j] of round [round]. *)
let stream_batch st ~round j =
  let lo = j * stream_batch_events in
  let hi = Stdlib.min stream_round_events (lo + stream_batch_events) in
  List.init (hi - lo) (fun k -> stream_event st ~round (lo + k))

(* The expected log of session [id], rendered. *)
let stream_expected st id =
  let round = id / stream_sessions and i = id mod stream_sessions in
  render ~session:id st.s_expected.(stream_corpus_index ~round i)

(* --- fleet: a large resident population, written to open-loop ------------ *)

(* 16,384 drifting sessions (every 4th an attack) stay resident for the
   whole run: set-up opens each with its first chunk, the timed phase
   sends further chunks round-robin, 16 events per batch, and the
   teardown ends them all. *)
let fleet_sessions = 16_384
let fleet_setup_batch_events = 256
let fleet_batch_events = 16

type fleet = {
  f_model : model;
  f_corpus : Bytes.t array;
  f_timed_batches : int;
}

let fleet_sent_chunks f s =
  let timed = f.f_timed_batches * fleet_batch_events in
  1 + (timed / fleet_sessions) + if s < timed mod fleet_sessions then 1 else 0

let fleet ~dir ~suite ~seed ~timed_batches =
  let m =
    model ~dir ~suite ~detector:"markov" ~window:8 ~alarm_budget:0.05 ()
  in
  let per_session =
    1 + ((timed_batches * fleet_batch_events) + fleet_sessions - 1) / fleet_sessions
  in
  let length = per_session * chunk in
  let n = fleet_sessions in
  let normal =
    Sessions.traces
      (Session_workload.drifting suite
         (Seqdiv_util.Prng.create ~seed:(seed + 12))
         ~sessions:(n - (n / 4)) ~length ~segments:4 ~peak_deviation:0.25)
  in
  let attacks =
    Sessions.traces
      (Session_workload.anomalous suite ~sessions:(n / 4) ~length
         ~anomaly_size:4 ~window:8)
  in
  { f_model = m; f_corpus = corpus ~n ~normal ~attacks;
    f_timed_batches = timed_batches }

let fleet_data f s c =
  Frame.Data
    { session = s; symbols = symbols_of f.f_corpus.(s) ~off:(c * chunk) ~len:chunk }

let fleet_setup_batches = fleet_sessions / fleet_setup_batch_events

let fleet_setup_batch f j =
  List.init fleet_setup_batch_events (fun k ->
      fleet_data f ((j * fleet_setup_batch_events) + k) 0)

let fleet_timed_batch f b =
  List.init fleet_batch_events (fun k ->
      let e = (b * fleet_batch_events) + k in
      fleet_data f (e mod fleet_sessions) (1 + (e / fleet_sessions)))

let fleet_teardown_batch j =
  List.init fleet_setup_batch_events (fun k ->
      Frame.End_of_session { session = (j * fleet_setup_batch_events) + k })

let fleet_expected f s =
  let b = f.f_corpus.(s) in
  let len = fleet_sent_chunks f s * chunk in
  render ~session:s
    (expected_log f.f_model ~session:s (fun feed ->
         for i = 0 to len - 1 do
           feed (Char.code (Bytes.get b i))
         done))
