(* One shard's session registry: Online monitors keyed by session id,
   stepped in arrival order, with optional journal-backed durability
   and batch dedup.  Single-domain by construction — see the .mli. *)

open Seqdiv_stream
open Seqdiv_util

type t = {
  scorer : Flat_automaton.scorer;
  threshold : float;
  adaptive : Adaptive_threshold.config option;
  journal : Shard_journal.t option;
  shard : int;
  monitors : (int, Online.t) Hashtbl.t;
  (* Resent-batch dedup: id -> the incident events the original apply
     emitted, bounded to [dedup_capacity], the same window as the
     journal's default batch history. *)
  dedup : (int, Frame.incident_event list) Hashtbl.t;
  dedup_order : int Queue.t;
  mutable events : int;
  mutable symbols : int;
  mutable batches : int;
  mutable replays : int;
  (* Window/alarm counts of sessions that have already ended: the
     shard totals are these plus a sum over resident monitors. *)
  mutable departed_windows : int;
  mutable departed_alarms : int;
}

let dedup_capacity = 64

let incident_of_core (i : Incident.t) =
  {
    Frame.first_start = i.Incident.first_start;
    last_start = i.Incident.last_start;
    cover_from = i.Incident.cover_from;
    cover_to = i.Incident.cover_to;
    alarms = i.Incident.alarms;
    peak_score = i.Incident.peak_score;
  }

let incident_to_core (i : Frame.incident) =
  {
    Incident.first_start = i.Frame.first_start;
    last_start = i.Frame.last_start;
    cover_from = i.Frame.cover_from;
    cover_to = i.Frame.cover_to;
    alarms = i.Frame.alarms;
    peak_score = i.Frame.peak_score;
  }

let remember_batch t ~batch_id incidents =
  Hashtbl.replace t.dedup batch_id incidents;
  Queue.push batch_id t.dedup_order;
  while Queue.length t.dedup_order > dedup_capacity do
    Hashtbl.remove t.dedup (Queue.pop t.dedup_order)
  done

let create ~scorer ~threshold ?adaptive ?journal ~shard () =
  let t =
    {
      scorer;
      threshold;
      adaptive;
      journal;
      shard;
      monitors = Hashtbl.create 1024;
      dedup = Hashtbl.create 128;
      dedup_order = Queue.create ();
      events = 0;
      symbols = 0;
      batches = 0;
      replays = 0;
      departed_windows = 0;
      departed_alarms = 0;
    }
  in
  Option.iter
    (fun j ->
      List.iter
        (fun (s : Shard_journal.session_state) ->
          let monitor =
            Online.restore ?adaptive scorer ~threshold
              {
                Online.snap_consumed = s.Shard_journal.js_consumed;
                snap_state = s.Shard_journal.js_state;
                snap_open =
                  Option.map incident_to_core s.Shard_journal.js_open;
                snap_adaptive = s.Shard_journal.js_adaptive;
              }
          in
          Hashtbl.replace t.monitors s.Shard_journal.js_session monitor)
        (Shard_journal.sessions j);
      List.iter
        (fun (b : Shard_journal.batch_record) ->
          remember_batch t ~batch_id:b.Shard_journal.jb_id
            b.Shard_journal.jb_incidents)
        (Shard_journal.batches j))
    journal;
  t

(* Incident events of one monitor's Online events, appended in emission
   order; Window_scored responses are the monitor's business, not the
   wire's. *)
let push_incident_events acc session events =
  List.iter
    (fun (e : Online.event) ->
      match e with
      | Online.Window_scored _ -> ()
      | Online.Incident_opened position ->
          acc := Frame.Opened { session; position } :: !acc
      | Online.Incident_closed incident ->
          acc :=
            Frame.Closed { session; incident = incident_of_core incident }
            :: !acc)
    events

let checkpoint_stride = 1024

let apply t ~batch_id events =
  match Hashtbl.find_opt t.dedup batch_id with
  | Some incidents ->
      t.replays <- t.replays + 1;
      incidents
  | None ->
      let acc = ref [] in
      (* First-touch order of the sessions this batch advanced, so the
         journal's session records are deterministic too. *)
      let touched = Hashtbl.create 16 in
      let touched_order = ref [] in
      let ended = Hashtbl.create 4 in
      let since_checkpoint = ref 0 in
      List.iter
        (fun (event : Frame.event) ->
          t.events <- t.events + 1;
          match event with
          | Frame.Data { session; symbols } ->
              let monitor =
                match Hashtbl.find_opt t.monitors session with
                | Some m -> m
                | None ->
                    let m =
                      Online.of_scorer ?adaptive:t.adaptive t.scorer
                        ~threshold:t.threshold
                    in
                    Hashtbl.replace t.monitors session m;
                    m
              in
              if not (Hashtbl.mem touched session) then begin
                Hashtbl.replace touched session ();
                touched_order := session :: !touched_order
              end;
              Hashtbl.remove ended session;
              t.symbols <- t.symbols + Array.length symbols;
              Array.iter
                (fun symbol ->
                  push_incident_events acc session (Online.feed monitor symbol);
                  incr since_checkpoint;
                  if !since_checkpoint >= checkpoint_stride then begin
                    since_checkpoint := 0;
                    Deadline.checkpoint ()
                  end)
                symbols
          | Frame.End_of_session { session } -> (
              match Hashtbl.find_opt t.monitors session with
              | None -> () (* unknown or already ended: nothing to flush *)
              | Some monitor ->
                  push_incident_events acc session (Online.flush monitor);
                  t.departed_windows <-
                    t.departed_windows + Online.windows_scored monitor;
                  t.departed_alarms <-
                    t.departed_alarms + Online.alarm_windows monitor;
                  Hashtbl.remove t.monitors session;
                  if not (Hashtbl.mem touched session) then begin
                    Hashtbl.replace touched session ();
                    touched_order := session :: !touched_order
                  end;
                  Hashtbl.replace ended session ()))
        events;
      let incidents = List.rev !acc in
      t.batches <- t.batches + 1;
      Option.iter
        (fun journal ->
          List.iter
            (fun session ->
              if Hashtbl.mem ended session then
                Shard_journal.record_end journal ~session
              else
                match Hashtbl.find_opt t.monitors session with
                | None -> ()
                | Some monitor -> (
                    match Online.snapshot monitor with
                    | None -> () (* of_scorer monitors always snapshot *)
                    | Some snap ->
                        Shard_journal.record_session journal
                          {
                            Shard_journal.js_session = session;
                            js_consumed = snap.Online.snap_consumed;
                            js_state = snap.Online.snap_state;
                            js_open =
                              Option.map incident_of_core snap.Online.snap_open;
                            js_adaptive = snap.Online.snap_adaptive;
                          }))
            (List.rev !touched_order);
          Shard_journal.record_batch journal
            {
              Shard_journal.jb_id = batch_id;
              jb_shard = t.shard;
              jb_events = List.length events;
              jb_incidents = incidents;
            };
          Shard_journal.commit journal)
        t.journal;
      remember_batch t ~batch_id incidents;
      incidents

let shard t = t.shard
let sessions_resident t = Hashtbl.length t.monitors
let events_applied t = t.events
let symbols_applied t = t.symbols
let batches_applied t = t.batches
let batches_replayed t = t.replays

(* Shard totals are departed counters plus a sum over resident
   monitors. *)
let windows_scored t =
  (* lint: allow determinism — integer sum is order-insensitive *)
  Hashtbl.fold
    (fun _ monitor total -> total + Online.windows_scored monitor)
    t.monitors t.departed_windows

let alarm_windows t =
  (* lint: allow determinism — integer sum is order-insensitive *)
  Hashtbl.fold
    (fun _ monitor total -> total + Online.alarm_windows monitor)
    t.monitors t.departed_alarms

(* The shard's published threshold: static configurations report the
   configured constant; adaptive ones report the maximum over resident
   monitors (max is hashtable-order-independent, keeping serve frames
   byte-stable across runs), falling back to the controller's starting
   point when no session is resident. *)
let current_threshold t =
  match t.adaptive with
  | None -> t.threshold
  | Some _ ->
      let best =
        (* lint: allow determinism — max is order-insensitive *)
        Hashtbl.fold
          (fun _ monitor acc ->
            match acc with
            | None -> Some (Online.current_threshold monitor)
            | Some b -> Some (Float.max b (Online.current_threshold monitor)))
          t.monitors None
      in
      Option.value best ~default:t.threshold

(* Word-count estimate: a resident monitor is the Online record, its
   automaton path record and a hashtable slot (~24 words, plus ~8 when
   an incident is open — called 28 flat); a dedup entry is the bucket,
   the queue cell and a short incident list (~16 words).  Estimated,
   not measured — the stat exists so capacity planning has an order of
   magnitude, not a byte count. *)
let bytes_resident t =
  let word = Sys.word_size / 8 in
  (Hashtbl.length t.monitors * 28 * word)
  + (Hashtbl.length t.dedup * 16 * word)
