(** Online (streaming) detection.

    The batch API scores whole traces; a monitor deployed on a live
    event stream must score each window as it completes.  This wrapper
    feeds symbols one at a time to any trained detector, emitting the
    response of each completed window and tracking a running incident
    (a maximal run of threshold-crossing windows) so callers can react
    to incident openings and closures as they happen.

    When the trained model compiles to a flat automaton
    ({!Trained.compile}), the monitor steps the automaton once per fed
    symbol — O(1) per symbol instead of a fresh O(window) descent per
    completed window — and emits bit-identical events; otherwise it
    falls back to re-scoring each completed window through the
    model. *)

open Seqdiv_stream
open Seqdiv_detectors

type t

type event =
  | Window_scored of Response.item
      (** a window just completed, with its response *)
  | Incident_opened of int
      (** the stream position at which an incident began *)
  | Incident_closed of Incident.t
      (** a completed incident (emitted when alarms stop) *)

val create :
  Trained.t ->
  ?compile:bool ->
  ?threshold:float ->
  ?adaptive:Adaptive_threshold.config ->
  unit ->
  t
(** A monitor around a trained detector.  [threshold] defaults to the
    detector's alarm threshold.  [compile] (default [true]) lets the
    monitor step the model's compiled flat-automaton scorer
    ({!Trained.compile}); pass [false] to force the reference
    window-rescoring path.  With [adaptive], the monitor owns a fresh
    {!Adaptive_threshold} controller and the alarm threshold tracks the
    controller instead of staying constant (the static [threshold] is
    still the controller's starting point via [adaptive.initial]). *)

val of_scorer :
  ?adaptive:Adaptive_threshold.config ->
  Flat_automaton.scorer ->
  threshold:float ->
  t
(** A monitor directly around a compiled scorer (e.g. one mmap-loaded
    by {!Seqdiv_detectors.Model_io.load_flat_file}) — deployment needs
    no detector module, no trie, and no training trace in memory.
    [adaptive] as in {!create}; each monitor owns its own controller,
    so a session's threshold trajectory depends only on its own
    stream (the serve layer's shard-count determinism contract). *)

val feed : t -> int -> event list
(** Push one symbol; returns the events it triggered, in order.  Until
    [window] symbols have been seen nothing is emitted.  Symbols are
    alphabet codes 0..254.  The automaton path checks that range itself
    and raises [Invalid_argument] outside it; a symbol inside it but
    beyond the model's alphabet steps the automaton to its root (it
    extends no recorded sequence).  The window-rescoring path validates
    each completed window against the 255-symbol alphabet and the
    model's own tables. *)

(** {1 Per symbol, without events}

    {!feed} builds a [Window_scored] record (and its event list) for
    every completed window.  A caller that needs only incident
    transitions steps with {!advance} (one symbol) or {!advance_run}
    (an array of them) instead: they return them as bits and allocate
    nothing on a window that neither opens nor grows an incident.  All
    three run the same incident rules, so they agree on every
    stream. *)

val closed_bit : int
(** Set in {!advance}'s result when the symbol closed an incident; the
    incident is {!last_closed}. *)

val opened_bit : int
(** Set when the symbol opened an incident; it is {!open_incident}, and
    its [first_start] is the position of the [Incident_opened] event
    {!feed} would emit.  A symbol can both close one incident and open
    the next. *)

val advance : t -> int -> int
(** Push one symbol, as {!feed} does, and return its incident
    transitions: [0], or {!closed_bit} and/or {!opened_bit}.  Under a
    static threshold the alarm test reads the score table without
    boxing the score; the score is read only on an alarming window.
    The adaptive path still hands each score to its controller.
    @raise Invalid_argument on a symbol outside 0..254, or on a
    monitor on the window-rescoring path ([create ~compile:false], or
    a model without a flat-automaton scorer): use {!feed} there. *)

val advance_run : t -> int array -> pos:int -> stop:int -> int
(** [advance_run t symbols ~pos ~stop] pushes [symbols.(pos)],
    [symbols.(pos + 1)], ... [symbols.(stop - 1)] as {!advance} pushes
    each, and returns right after the first symbol whose transition
    bits are non-zero, with those bits; [0] once it has pushed them
    all.  {!position} tells how far it got.  Under a static threshold
    with no incident open, the quiet windows run in
    {!Flat_automaton.run_quiet}; every other symbol (warm-up, an open
    incident, an adaptive monitor, a symbol beyond the model's
    alphabet) takes {!advance}'s rule, in a loop inside this call.
    Requires [0 <= pos] and [stop <= Array.length symbols].
    @raise Invalid_argument as {!advance} does, at the same symbol,
    once the symbols before it have been pushed. *)

val open_incident : t -> Incident.t option
(** The incident currently open, if any. *)

val last_closed : t -> Incident.t option
(** The most recently closed incident, if any. *)

val flush : t -> event list
(** Close any open incident (end of stream). *)

val position : t -> int
(** Symbols consumed so far. *)

val current_threshold : t -> float
(** The threshold the {e next} completed window will be judged at: the
    adaptive controller's current threshold, or the static one. *)

val windows_scored : t -> int
(** Completed windows judged so far.  Under adaptive thresholding this
    is the controller's (journal-exact) count; on the static path it
    counts from creation or restore. *)

val alarm_windows : t -> int
(** Windows that alarmed.  Journal-exact under adaptive thresholding;
    counted since creation/restore on the static path (a restored
    static monitor restarts at 0 — alarms are not derivable from its
    snapshot). *)

val incidents : t -> Incident.t list
(** All incidents closed so far, oldest first (not including an
    incident still open). *)

(** {1 Persistence}

    The serve layer journals per-session monitor state so a killed
    server resumes mid-stream with byte-identical subsequent output.  A
    snapshot is the complete feed-relevant state of an automaton-path
    monitor: position, automaton state, and the open incident. *)

type snapshot = {
  snap_consumed : int;  (** symbols consumed so far *)
  snap_state : int;  (** current flat-automaton state *)
  snap_open : Incident.t option;  (** the incident open at the snapshot *)
  snap_adaptive : string option;
      (** the adaptive controller's {!Adaptive_threshold.to_string}
          token (threshold, counters and quantile-sketch state), when
          the monitor is adaptive — this is what keeps kill/resume
          byte-identical with moving thresholds *)
}

val snapshot : t -> snapshot option
(** The monitor's resumable state, or [None] on the window-rescoring
    path (which the serve layer never uses). *)

val restore :
  ?adaptive:Adaptive_threshold.config ->
  Flat_automaton.scorer ->
  threshold:float ->
  snapshot ->
  t
(** A monitor continuing exactly where [snapshot] left off.  Feeding it
    the remainder of the stream emits the same events the snapshotted
    monitor would have; incidents closed {e before} the snapshot are not
    carried (they are already journalled), so {!incidents} reports only
    post-restore closures.  [adaptive] must match how the snapshot was
    taken: the controller is rebuilt from [snap_adaptive] under the
    given config.
    @raise Invalid_argument if the snapshot's state is not a valid state
    of this scorer's automaton, if exactly one of [adaptive] /
    [snap_adaptive] is present, or if the token does not parse under
    [adaptive]. *)
