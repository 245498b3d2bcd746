open Seqdiv_stream
open Seqdiv_detectors

type event =
  | Window_scored of Response.item
  | Incident_opened of int
  | Incident_closed of Incident.t

(* Two scoring paths behind one monitor:

   - [Automaton]: a compiled flat-automaton scorer steps once per fed
     symbol — O(1) per symbol, no buffering; through [advance], a quiet
     window allocates nothing.
   - [Window_slide]: the reference path.  A ring buffer keeps the last
     [window] symbols; each completed window is materialised as a
     one-window trace and scored through the trained model.

   The [Detector.S.compile] contract makes the two emit bit-identical
   events on every valid stream (asserted by test_flat_automaton). *)
type path =
  | Automaton of Flat_automaton.cursor
  | Window_slide of {
      trained : Trained.t;
      alphabet : Alphabet.t;
      buffer : int array;  (* ring of the last [window] symbols *)
    }

type t = {
  path : path;
  threshold : float;  (* static threshold (and the adaptive initial) *)
  adaptive : Adaptive_threshold.t option;
  window : int;
  mutable consumed : int;
  (* Static-path window/alarm counters; when [adaptive] is present the
     controller's own (journal-carried, exactly-once) counters are
     authoritative instead. *)
  mutable scored : int;
  mutable alarmed : int;
  mutable open_incident : Incident.t option;
  mutable closed : Incident.t list;  (* newest first *)
}

let make ~path ~threshold ~adaptive ~window =
  {
    path;
    threshold;
    adaptive;
    window;
    consumed = 0;
    scored = 0;
    alarmed = 0;
    open_incident = None;
    closed = [];
  }

let window_slide trained ~window =
  Window_slide
    {
      trained;
      (* The detector does not expose its training alphabet; symbols are
         validated when the window trace is built, against the widest
         alphabet, and again by the model's own lookup tables. *)
      alphabet = Alphabet.make 255;
      buffer = Array.make window 0;
    }

let create trained ?(compile = true) ?threshold ?adaptive () =
  let threshold =
    match threshold with
    | Some thr -> thr
    | None -> Trained.alarm_threshold trained
  in
  let window = Trained.window trained in
  let path =
    match if compile then Trained.compile trained else None with
    | Some scorer ->
        Automaton { Flat_automaton.scorer; state = Flat_automaton.start }
    | None -> window_slide trained ~window
  in
  make ~path ~threshold
    ~adaptive:(Option.map Adaptive_threshold.create adaptive)
    ~window

let of_scorer ?adaptive scorer ~threshold =
  let window = Flat_automaton.depth (Flat_automaton.automaton scorer) in
  make
    ~path:(Automaton { Flat_automaton.scorer; state = Flat_automaton.start })
    ~threshold
    ~adaptive:(Option.map Adaptive_threshold.create adaptive)
    ~window

let position t = t.consumed

let current_threshold t =
  match t.adaptive with
  | Some a -> Adaptive_threshold.threshold a
  | None -> t.threshold

let windows_scored t =
  match t.adaptive with
  | Some a -> Adaptive_threshold.windows a
  | None -> t.scored

let alarm_windows t =
  match t.adaptive with
  | Some a -> Adaptive_threshold.alarms a
  | None -> t.alarmed

let incidents t = List.rev t.closed
let open_incident t = t.open_incident

let last_closed t =
  match t.closed with [] -> None | incident :: _ -> Some incident

(* --- the incident rules ------------------------------------------------- *)

(* Transition bits of one symbol. *)
let closed_bit = 1
let opened_bit = 2

(* Start of the window the last symbol completed. *)
let[@inline] window_start t = t.consumed - t.window

let close_incident t =
  match t.open_incident with
  | None -> 0
  | Some incident ->
      t.open_incident <- None;
      (* lint: allow allocation — one list cell per closed incident, not per window *)
      t.closed <- incident :: t.closed;
      closed_bit

(* Incident bookkeeping for one completed window — shared by both paths
   (and by [advance] and [feed]) so they can only differ through the
   score itself.  A window that did not alarm closes the open incident
   once it starts past the incident's cover. *)
let[@inline] pass t =
  t.scored <- t.scored + 1;
  match t.open_incident with
  | Some incident when window_start t > incident.Incident.cover_to ->
      close_incident t
  | Some _ | None -> 0

(* A window that alarmed with [score] grows the open incident when it
   starts inside or right after its cover; otherwise it closes that
   incident and opens a new one.  Incident records are allocated here,
   on alarm windows only. *)
let alarm t score =
  t.scored <- t.scored + 1;
  t.alarmed <- t.alarmed + 1;
  let start = window_start t in
  let cover_to = start + t.window - 1 in
  match t.open_incident with
  | Some incident when start <= incident.Incident.cover_to + 1 ->
      t.open_incident <-
        Some
          {
            incident with
            Incident.last_start = start;
            cover_to = Stdlib.max incident.Incident.cover_to cover_to;
            alarms = incident.Incident.alarms + 1;
            peak_score = Float.max incident.Incident.peak_score score;
          };
      0
  | Some _ | None ->
      let bits = close_incident t in
      t.open_incident <-
        Some
          {
            Incident.first_start = start;
            last_start = start;
            cover_from = start;
            cover_to;
            alarms = 1;
            peak_score = score;
          };
      bits lor opened_bit

(* The alarm decision for a window whose score is in hand, made at the
   {e pre-update} threshold: the window being judged must not move the
   bar it is judged against.  The rules differ at the boundary: the
   static path alarms at-or-above its fixed threshold, while the
   adaptive controller alarms strictly above its tracked quantile (the
   quantile value can be a heavy atom of the score distribution, and
   charging that atom would blow the budget). *)
let[@inline] judge t score =
  let alarmed =
    match t.adaptive with
    | Some a -> Adaptive_threshold.step a score
    | None -> score >= t.threshold
  in
  if alarmed then alarm t score else pass t

(* --- per symbol --------------------------------------------------------- *)

let bad_symbol symbol =
  (* lint: allow partiality allocation — documented precondition; the message is built only on the raise *)
  invalid_arg (Printf.sprintf "Online: symbol %d out of range" symbol)

(* The stream's symbol codes: 0..254. *)
let symbol_codes = 255

(* One symbol on the automaton path; true once it completes a window. *)
let[@inline] step t (c : Flat_automaton.cursor) symbol =
  (* The window path validates against its 255-symbol alphabet when a
     completed window is materialised; the automaton path never
     materialises one, so it validates here. *)
  if symbol < 0 || symbol >= symbol_codes then bad_symbol symbol;
  c.state <-
    Flat_automaton.step (Flat_automaton.automaton c.scorer) c.state symbol;
  t.consumed <- t.consumed + 1;
  t.consumed >= t.window

(* The transition bits of one symbol.  A static threshold is tested on
   the score table itself ([state_alarms]), so a quiet window reads no
   score and allocates nothing; the score is read only to open or grow
   an incident, or for the adaptive controller. *)
let[@inline] symbol_bits t (c : Flat_automaton.cursor) symbol =
  if not (step t c symbol) then 0
  else
    match t.adaptive with
    | Some _ -> judge t (Flat_automaton.state_score c.scorer c.state)
    | None ->
        if Flat_automaton.state_alarms c.scorer c.state t.threshold then
          alarm t (Flat_automaton.state_score c.scorer c.state)
        else pass t

let window_path message =
  (* lint: allow partiality — documented precondition *)
  invalid_arg message

let advance t symbol =
  match t.path with
  | Automaton c -> symbol_bits t c symbol
  | Window_slide _ ->
      window_path "Online.advance: monitor is on the window-rescoring path"

(* --- a run of symbols --------------------------------------------------- *)

(* Whether the kernel may take the next symbols: a static threshold, no
   incident open, and every next symbol completing a window.  Each
   quiet window the kernel steps is then exactly a [pass] that closes
   nothing. *)
let[@inline] quiet t =
  match t.adaptive with
  | Some _ -> false
  | None -> (
      match t.open_incident with
      | Some _ -> false
      | None -> t.consumed >= t.window - 1)

(* The symbols from [i] to [stop - 1], up to and including the first
   with transition bits: quiet stretches in the kernel, every other
   symbol through [symbol_bits]. *)
let rec run_from t c symbols i stop =
  let i =
    if not (quiet t) then i
    else begin
      let j =
        Flat_automaton.run_quiet c ~threshold:t.threshold ~below:symbol_codes
          symbols ~pos:i ~stop
      in
      t.consumed <- t.consumed + (j - i);
      t.scored <- t.scored + (j - i);
      j
    end
  in
  if i >= stop then 0
  else
    let bits = symbol_bits t c symbols.(i) in
    if bits <> 0 then bits else run_from t c symbols (i + 1) stop

let advance_run t symbols ~pos ~stop =
  match t.path with
  | Automaton c -> run_from t c symbols pos stop
  | Window_slide _ ->
      window_path "Online.advance_run: monitor is on the window-rescoring path"

(* --- with events -------------------------------------------------------- *)

let current_window t buffer =
  (* Oldest-first view of the ring buffer. *)
  Array.init t.window (fun i -> buffer.((t.consumed + i) mod t.window))

(* The reference path: the completed window materialised as a one-window
   trace and scored through the trained model. *)
let rescore t trained alphabet buffer =
  let window_trace = Trace.of_array alphabet (current_window t buffer) in
  let response = Trained.score_range trained window_trace ~lo:0 ~hi:0 in
  if Response.length response = 0 then 0.0
  else response.Response.items.(0).Response.score

(* The events of one completed window, from its transition bits: the
   incident a window closes is the newest in [closed]. *)
let events t bits score =
  let opened =
    if bits land opened_bit = 0 then []
    else [ Incident_opened (window_start t) ]
  in
  let closed =
    match t.closed with
    | incident :: _ when bits land closed_bit <> 0 ->
        Incident_closed incident :: opened
    | _ -> opened
  in
  Window_scored { Response.start = window_start t; cover = t.window; score }
  :: closed

let feed t symbol =
  match t.path with
  | Automaton c ->
      if not (step t c symbol) then []
      else
        let score = Flat_automaton.state_score c.scorer c.state in
        events t (judge t score) score
  | Window_slide { trained; alphabet; buffer } ->
      buffer.(t.consumed mod t.window) <- symbol;
      t.consumed <- t.consumed + 1;
      if t.consumed < t.window then []
      else
        let score = rescore t trained alphabet buffer in
        events t (judge t score) score

let flush t =
  match t.open_incident with
  | None -> []
  | Some incident ->
      ignore (close_incident t);
      [ Incident_closed incident ]

(* --- persistence (the serve layer's shard journals) -------------------- *)

type snapshot = {
  snap_consumed : int;
  snap_state : int;
  snap_open : Incident.t option;
  snap_adaptive : string option;
}

let snapshot t =
  match t.path with
  | Automaton c ->
      Some
        {
          snap_consumed = t.consumed;
          snap_state = c.state;
          snap_open = t.open_incident;
          snap_adaptive = Option.map Adaptive_threshold.to_string t.adaptive;
        }
  | Window_slide _ -> None

let restore ?adaptive scorer ~threshold snap =
  let automaton = Flat_automaton.automaton scorer in
  if
    snap.snap_consumed < 0 || snap.snap_state < 0
    || snap.snap_state >= Flat_automaton.states automaton
  then
    (* lint: allow partiality — documented precondition *)
    invalid_arg
      (Printf.sprintf "Online.restore: invalid snapshot (consumed=%d state=%d)"
         snap.snap_consumed snap.snap_state);
  let controller =
    match (adaptive, snap.snap_adaptive) with
    | None, None -> None
    | Some cfg, Some token -> (
        match Adaptive_threshold.of_string cfg token with
        | Some c -> Some c
        | None ->
            (* lint: allow partiality — documented precondition *)
            invalid_arg
              "Online.restore: adaptive-threshold token is corrupt or was \
               written under a different controller configuration")
    | Some _, None | None, Some _ ->
        (* lint: allow partiality — documented precondition *)
        invalid_arg
          "Online.restore: snapshot and configuration disagree about \
           adaptive thresholding"
  in
  let window = Flat_automaton.depth automaton in
  let t =
    make
      ~path:(Automaton { Flat_automaton.scorer; state = snap.snap_state })
      ~threshold ~adaptive:controller ~window
  in
  t.consumed <- snap.snap_consumed;
  (* Static-path counters restart from the resumable position: windows
     are derivable, alarms are not (they are exact — journal-carried —
     only under adaptive thresholding). *)
  t.scored <- Stdlib.max 0 (snap.snap_consumed - window + 1);
  t.open_incident <- snap.snap_open;
  t
