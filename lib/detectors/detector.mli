(** The common shape of a sequence-based anomaly detector.

    Section 4.2 of the paper: each detector consists of (1) a mechanism
    for modelling normal behaviour, built by sliding a fixed-length
    window over training data; (2) a similarity metric — the locus of
    diversity; (3) a user-set thresholding mechanism.  This module pins
    down (1) and (3) so that implementations differ only in (2), exactly
    the experimental control the paper imposes. *)

open Seqdiv_stream

module type S = sig
  type model

  val name : string
  (** Short identifier, e.g. ["stide"]. *)

  val maximal_epsilon : float
  (** Slack for recognising a maximal response: a score [>= 1 - eps]
      counts as maximally anomalous.  0 for detectors whose metric emits
      exact 0/1 responses (Stide); small and positive for probabilistic
      metrics whose estimate of "impossible" may be a tiny probability
      rather than an exact zero (Markov, neural network). *)

  val train : window:int -> Trace.t -> model
  (** Build the normal-behaviour model from a training trace using the
      given detector-window size.  Requires [window >= 2] and a trace no
      shorter than the window. *)

  val train_of_trie : (Seq_trie.t -> window:int -> model) option
  (** When the detector's model of normal behaviour is read out of the
      training windows, the shared-trie constructor: build the model
      for one window size from a trie that indexed the training trace
      at least [window] symbols deep.  The engine builds that trie once
      per training trace and reuses it for every window cell and every
      capable detector; the result must be indistinguishable from
      [train] on the same trace.  [None] only for detectors whose
      training is not a function of the window counts (HMM, trained by
      Baum-Welch on the raw trace). *)

  val window : model -> int
  (** The window size the model was trained with. *)

  val score_range : model -> Trace.t -> lo:int -> hi:int -> Response.t
  (** Responses whose item [start] lies in [\[lo, hi\]] (clamped to the
      valid range for the trace).  Restricting the range lets the
      evaluation score only the neighbourhood of an injected anomaly —
      important for the instance-based L&B detector, whose scoring cost
      is proportional to the database size. *)

  val score : model -> Trace.t -> Response.t
  (** All responses for a trace: [score_range] over the whole trace. *)

  val compile :
    (?automaton:Flat_automaton.t -> model -> Flat_automaton.scorer option)
    option
  (** When the model can be compiled to a flat-automaton scorer
      ({!Seqdiv_stream.Flat_automaton}), the compiler: the returned
      scorer must produce bit-identical responses to [score_range] on
      every trace — the trie descent stays the correctness reference.
      [?automaton] optionally reuses an automaton already compiled from
      the same training data at this model's window (the engine's
      automaton cache); implementations must check its depth and
      alphabet and compile a fresh one on any mismatch.  The inner
      option is for models a compiler cannot serve (e.g. a smoothed
      Markov model, whose scores are no longer a per-state table over
      the trained trie).  [None] for detectors with no compiled form. *)
end

type t = (module S)
(** A first-class detector, for registries and ensembles. *)

val clamp_range : trace_len:int -> window:int -> lo:int -> hi:int -> int * int
(** Helper shared by implementations: clamp [\[lo, hi\]] to the valid
    window-start range [\[0, trace_len - window\]].  The result may be
    empty ([fst > snd]). *)

val full_range : trace_len:int -> window:int -> int * int
(** The whole valid window-start range. *)

val obtain_automaton :
  ?automaton:Flat_automaton.t -> Seq_trie.t -> window:int -> Flat_automaton.t
(** Helper shared by [compile] implementations: [automaton] when it has
    depth [window] over the trie's alphabet, else a fresh
    {!Seqdiv_stream.Flat_automaton.compile} of the trie. *)

val compiled_score_range :
  Flat_automaton.scorer ->
  detector:string ->
  Trace.t ->
  lo:int ->
  hi:int ->
  Response.t
(** Score a range with a compiled scorer: the shared fast-path loop
    behind every [compile] implementation.  One automaton step and one
    table read per window, no allocation in the loop, and the same
    checkpoint cadence as the trie-descent scorers — so responses
    (including under armed deadlines) are bit-identical to the
    reference path. *)
