(** A detector paired with a trained model — the runtime unit the
    evaluation harness, ensembles and false-alarm analyses operate on.

    [Detector.S] exposes an abstract per-module [model] type; this
    existential wrapper lets heterogeneous trained detectors travel in
    one list. *)

open Seqdiv_stream
open Seqdiv_detectors

type t

val train : Detector.t -> window:int -> Trace.t -> t
(** Train one detector at one window size. *)

val trie_capable : Detector.t -> bool
(** Whether the detector can build its model as a view over a shared
    counting trie ({!Detector.S.train_of_trie}). *)

val train_of_trie : Detector.t -> Seq_trie.t -> window:int -> t option
(** Build a model from a shared trie that indexed the training trace at
    least [window] symbols deep.  [None] when the detector is not
    {!trie_capable}.  The result must be indistinguishable from {!train}
    on the trace the trie was built from. *)

val name : t -> string
(** The underlying detector's name. *)

val window : t -> int
(** The window size the model was trained with. *)

val maximal_epsilon : t -> float
(** The underlying detector's maximal-response slack. *)

val alarm_threshold : t -> float
(** [1 − maximal_epsilon]: the response level at which this detector
    raises an alarm under the paper's threshold-of-1 policy. *)

val score : t -> Trace.t -> Response.t
(** Score a whole trace. *)

val score_range : t -> Trace.t -> lo:int -> hi:int -> Response.t
(** Score window starts within a range. *)

val compile : t -> Flat_automaton.scorer option
(** Compile the model to a flat-automaton scorer of depth {!window}
    ({!Detector.S.compile}), for the deployments that step one: online
    monitors, [seqdiv serve] and flat model files.  [None] when the
    detector has no compiled form (or this model declines, e.g.
    smoothed Markov).  {!score} and {!score_range} always run the
    detector's own descent, the reference a compiled scorer must match
    bit for bit. *)
