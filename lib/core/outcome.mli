(** Detection outcomes (Section 5.5).

    For a detector whose responses range over [\[0, 1\]], the paper
    classifies its behaviour on an injected anomaly by the responses
    inside the incident span:

    - {e blind}: every response is 0 — the anomaly is perceived as
      completely normal;
    - {e weak}: the maximum response is strictly between 0 and maximal —
      something abnormal was sensed but a threshold of 1 misses it;
    - {e capable}: at least one maximal response occurred — the anomaly
      registers as an alarm no matter where the detection threshold is
      set.

    A fourth, non-paper outcome exists for supervised execution:
    {!Failed} marks a cell whose train or score task faulted past the
    engine's retry budget.  It is never produced by {!classify} — only
    the engine's supervisor degrades a cell to it — and the reports
    render it distinctly so a partial run can never be mistaken for a
    blind-cell result. *)

type t =
  | Blind
  | Weak of float  (** maximum response observed, in (0, 1−ε) *)
  | Capable of float  (** maximum response observed, in [\[1−ε, 1\]] *)
  | Failed of Fault.t
      (** cell not computed: its task failed past the retry budget *)

val classify : epsilon:float -> max_response:float -> t
(** Classify from the maximum response in the incident span.  [epsilon]
    is the detector's slack for "maximal" (see
    {!Seqdiv_detectors.Detector.S.maximal_epsilon}).  Requires
    [max_response] in [\[0, 1\]] and [epsilon] in [\[0, 1)].  Never
    returns {!Failed}. *)

val is_capable : t -> bool
val is_blind : t -> bool
val is_weak : t -> bool
val is_failed : t -> bool

val max_response : t -> float
(** The maximum response the outcome was classified from (0 for
    {!Blind} and {!Failed}). *)

val to_char : t -> char
(** ['*'] capable, ['o'] weak, ['.'] blind, ['!'] failed — the glyphs
    of the rendered performance maps. *)

val to_string : t -> string

val equal : t -> t -> bool
(** Structural equality; {!Failed} cells compare by {!Fault.equal}
    (backtraces ignored). *)
