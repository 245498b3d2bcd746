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
  (* Running window/alarm totals: the restored monitors' counts, plus
     each Data event's change to its monitor's counters. *)
  mutable windows : int;
  mutable alarms : int;
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
      windows = 0;
      alarms = 0;
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
          t.windows <- t.windows + Online.windows_scored monitor;
          t.alarms <- t.alarms + Online.alarm_windows monitor;
          Hashtbl.replace t.monitors s.Shard_journal.js_session monitor)
        (Shard_journal.sessions j);
      List.iter
        (fun (b : Shard_journal.batch_record) ->
          remember_batch t ~batch_id:b.Shard_journal.jb_id
            b.Shard_journal.jb_incidents)
        (Shard_journal.batches j))
    journal;
  t

let push_closed acc session incident =
  acc := Frame.Closed { session; incident = incident_of_core incident } :: !acc

(* The incident events of one symbol's {!Online.advance_run} bits,
   appended in emission order: a close comes before the open it makes
   room for. *)
let push_transitions acc session monitor bits =
  if bits land Online.closed_bit <> 0 then
    Option.iter (push_closed acc session) (Online.last_closed monitor);
  if bits land Online.opened_bit <> 0 then
    Option.iter
      (fun (i : Incident.t) ->
        let position = i.Incident.first_start in
        acc := Frame.Opened { session; position } :: !acc)
      (Online.open_incident monitor)

let checkpoint_stride = 1024

(* Step one Data event's symbols from [i], in runs of
   {!Online.advance_run}.  [stepped] counts the batch's symbols so far:
   no run crosses a multiple of [checkpoint_stride], where the deadline
   is polled.  Returns the batch's count once the event is stepped. *)
let rec step_symbols acc session monitor symbols i stepped =
  if i >= Array.length symbols then stepped
  else
    let stop =
      Stdlib.min (Array.length symbols)
        (i + checkpoint_stride - (stepped mod checkpoint_stride))
    in
    let before = Online.position monitor in
    let bits = Online.advance_run monitor symbols ~pos:i ~stop in
    let moved = Online.position monitor - before in
    if bits <> 0 then push_transitions acc session monitor bits;
    let stepped = stepped + moved in
    if stepped mod checkpoint_stride = 0 then Deadline.checkpoint ();
    step_symbols acc session monitor symbols (i + moved) stepped

(* Add a monitor's counter changes since [windows]/[alarms] to the
   shard's running totals. *)
let settle t monitor ~windows ~alarms =
  t.windows <- t.windows + Online.windows_scored monitor - windows;
  t.alarms <- t.alarms + Online.alarm_windows monitor - alarms

let monitor_for t session =
  match Hashtbl.find_opt t.monitors session with
  | Some m -> m
  | None ->
      let m =
        Online.of_scorer ?adaptive:t.adaptive t.scorer ~threshold:t.threshold
      in
      Hashtbl.replace t.monitors session m;
      m

(* What the journal records of a batch: the sessions it touched, each
   mapped to whether the batch ended it, in first-touch order (newest
   first) so the journal's session records are deterministic too.  Kept
   only when a journal is attached. *)
type touched = {
  journal : Shard_journal.t;
  ended : (int, bool) Hashtbl.t;
  mutable order : int list;
}

let touch touched session ~ended =
  match touched with
  | None -> ()
  | Some r ->
      if not (Hashtbl.mem r.ended session) then r.order <- session :: r.order;
      Hashtbl.replace r.ended session ended

let apply_event t acc touched stepped (event : Frame.event) =
  t.events <- t.events + 1;
  match event with
  | Frame.Data { session; symbols } -> (
      let monitor = monitor_for t session in
      touch touched session ~ended:false;
      t.symbols <- t.symbols + Array.length symbols;
      let windows = Online.windows_scored monitor in
      let alarms = Online.alarm_windows monitor in
      match step_symbols acc session monitor symbols 0 stepped with
      | stepped ->
          settle t monitor ~windows ~alarms;
          stepped
      (* lint: allow swallow — re-raised at once: a batch cut short keeps the totals in step with its monitors *)
      | exception exn ->
          settle t monitor ~windows ~alarms;
          raise exn)
  | Frame.End_of_session { session } -> (
      match Hashtbl.find_opt t.monitors session with
      | None -> stepped (* unknown or already ended: nothing to flush *)
      | Some monitor ->
          List.iter
            (function
              | Online.Incident_closed i -> push_closed acc session i
              | Online.Window_scored _ | Online.Incident_opened _ -> ())
            (Online.flush monitor);
          Hashtbl.remove t.monitors session;
          touch touched session ~ended:true;
          stepped)

let journal_batch t ~batch_id ~events incidents { journal; ended; order } =
  List.iter
    (fun session ->
      match Hashtbl.find_opt ended session with
      | Some true -> Shard_journal.record_end journal ~session
      | Some false | None -> (
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
                    })))
    (List.rev order);
  Shard_journal.record_batch journal
    {
      Shard_journal.jb_id = batch_id;
      jb_shard = t.shard;
      jb_events = List.length events;
      jb_incidents = incidents;
    };
  Shard_journal.commit journal

let apply t ~batch_id events =
  match Hashtbl.find_opt t.dedup batch_id with
  | Some incidents ->
      t.replays <- t.replays + 1;
      incidents
  | None ->
      let acc = ref [] in
      let touched =
        Option.map
          (fun journal -> { journal; ended = Hashtbl.create 16; order = [] })
          t.journal
      in
      ignore (List.fold_left (apply_event t acc touched) 0 events);
      let incidents = List.rev !acc in
      t.batches <- t.batches + 1;
      Option.iter (journal_batch t ~batch_id ~events incidents) touched;
      remember_batch t ~batch_id incidents;
      incidents

let shard t = t.shard
let sessions_resident t = Hashtbl.length t.monitors
let events_applied t = t.events
let symbols_applied t = t.symbols
let batches_applied t = t.batches
let batches_replayed t = t.replays

let windows_scored t = t.windows
let alarm_windows t = t.alarms

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
