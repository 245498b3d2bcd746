(** The neural-network-based detector (Debar, Becker & Siboni 1992).

    A multi-layer feed-forward network learns to predict the next
    element from the preceding DW−1 elements: inputs are the one-hot
    encoded context, the output layer is a softmax over the alphabet,
    and training minimises weighted cross-entropy over the distinct
    (context → next) pairs of the training stream (weights proportional
    to their occurrence counts, which is equivalent to training on the
    raw stream).  The anomaly response is [1 − P̂(next | context)] — a
    function approximation of the Markov detector's conditional
    probabilities, which is exactly how the paper characterises it
    (Section 5.2).

    Because a softmax never emits an exact zero, the detector's
    {!maximal_epsilon} is larger than the Markov detector's, and its
    ability to reach maximal responses depends on the training
    hyper-parameters — the sensitivity the paper reports in Section 7
    and which the A2 ablation reproduces.

    {b Sparse evaluation.}  Context position [i] holding symbol [s] is
    input column [i·k + s] ([k] the training alphabet's size), so a
    context sets exactly [window − 1] of the [(window − 1)·k] inputs.
    Each distinct training pair is stored once, as those column indices,
    its next symbol and its weight; the first layer sums only those
    entries of each weight row, in ascending column order, and its
    gradient touches only them.  The dense product's other terms are
    products by [0.0], so models, losses, {!predict} and scores are bit
    for bit those of the dense evaluation.  Training allocates its
    buffers once per {!train_with} call and nothing per epoch; scoring
    allocates nothing per window beyond the response item.

    {b Symbols outside the training alphabet.}  A scored window whose
    context or next symbol is [≥ k] has a context or continuation
    training never saw, and scores [1.0], as an unseen context or
    continuation does in the Markov detector.  {!predict} rejects such a
    context. *)

open Seqdiv_stream

type params = {
  hidden : int;  (** hidden-layer width *)
  epochs : int;  (** full-batch gradient iterations *)
  learning_rate : float;  (** the "learning constant" *)
  momentum : float;  (** the "momentum constant" *)
  seed : int;  (** weight-initialisation seed *)
}

val default_params : params
(** 24 hidden units, 400 epochs, learning rate 0.5, momentum 0.9,
    seed 42 — sufficient for the network to mimic the Markov detector on
    the paper's data. *)

include Detector.S

val train_with : params -> window:int -> Trace.t -> model
(** {!train} with explicit hyper-parameters ({!train} uses
    {!default_params}). *)

val params : model -> params
(** Hyper-parameters the model was trained with. *)

val predict : model -> int array -> float array
(** Softmax distribution over the next symbol given a context of
    [window − 1] symbols.
    @raise Invalid_argument if a context symbol is outside [\[0, k)],
    [k] the size of the training alphabet. *)

val training_loss : model -> float
(** Final weighted cross-entropy, for convergence diagnostics and the
    hyper-parameter ablation. *)
