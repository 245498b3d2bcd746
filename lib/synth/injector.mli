(** Boundary-clean injection of anomalies into background data
    (Section 5.4.2, Figure 2).

    Injecting an anomaly naively creates {e boundary sequences} —
    windows mixing anomaly and background elements — that may themselves
    be foreign or rare and would confound the evaluation.  The paper's
    requirement: every window that contains a {e proper} part of the
    anomaly together with background must be a sequence that exists in
    the training data.  (Windows containing the anomaly in its entirety
    are the detection signal itself and are exempt.)

    The injection is a splice: the background cycle is cut at a
    phase-aligned point, the anomaly inserted, and the remainder of the
    background re-started on the cycle successor of the anomaly's last
    symbol, so both junction transitions follow patterns present in
    training.  Verification is performed against the actual training
    index; when it fails for one candidate anomaly, the caller tries the
    next — the brute-force process the paper describes. *)

open Seqdiv_stream

type injection = {
  trace : Trace.t;  (** the final test stream *)
  position : int;  (** index of the anomaly's first element *)
  anomaly : int array;  (** the injected symbols *)
}

exception No_clean_injection of string
(** Raised by suite builders when no candidate anomaly admits a
    boundary-clean injection — the training stream is too short or the
    parameters too tight.  The message names the anomaly size, window
    and how many candidates were tried. *)

val no_clean_injection : ('a, Format.formatter, unit, 'b) format4 -> 'a
(** [no_clean_injection fmt ...] raises {!No_clean_injection} with the
    formatted message. *)

val clean_boundaries :
  Seq_trie.t -> Trace.t -> position:int -> size:int -> width:int -> bool
(** [clean_boundaries index trace ~position ~size ~width] checks that
    every [width]-window of [trace] that intersects the anomaly
    occupying [\[position, position+size-1\]] — except windows containing
    the whole anomaly — occurs in the training data behind [index]. *)

val inject :
  Seq_trie.t -> background:Trace.t -> anomaly:int array -> width:int ->
  injection option
(** Inject the anomaly near the middle of the background, phase-aligned,
    and verify boundary cleanliness at the given detector-window width.
    [None] when verification fails (the caller should try another
    candidate anomaly).  The background must be a pure cycle (as built by
    {!Generator.background}) of length at least [4 * width + 2 *
    Array.length anomaly + 2]. *)

val inject_first :
  Seq_trie.t -> background:Trace.t -> candidates:int array list ->
  width:int -> injection option
(** Try candidate anomalies in order and return the first clean
    injection. *)

val incident_span : position:int -> size:int -> width:int -> int * int
(** [incident_span ~position ~size ~width] is the inclusive range
    [(first, last)] of window start indices whose [width]-window contains
    at least one element of the anomaly — the incident span of Figure 2.
    [first] is clamped at 0. *)
