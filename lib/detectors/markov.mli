(** The Markov-based detector (Teng, Chen & Lu 1990; Jha, Tan & Maxion
    2001).

    For every window of size DW the detector conditions on the first
    DW−1 elements and scores the probability that the DW-th element
    follows them, as estimated from training counts.  The response is
    [1 − P(next | context)], so 0 means "the usual continuation" and 1
    means "a continuation never seen after this context" — including
    the case of a context that itself never occurred in training
    (Section 5.2; the paper's DW = 2 case is the classic first-order
    Markov assumption, context of a single element).

    The detector's {!Detector.S.maximal_epsilon} equals the paper's
    rare-sequence threshold (0.5 %): a continuation whose estimated
    probability is below the rarity cut-off is maximally anomalous.
    This encodes the paper's observation that the Markov detector
    responds maximally both to foreign sequences and to rare ones —
    the source of its wide coverage and of its higher false-alarm
    rate.

    The conditional-count table is the training
    {!Seqdiv_stream.Seq_trie} itself: a context is the depth-(DW−1)
    node on its symbol path, each numerator a child count.  {!train} is
    {!of_trie} over a trie of the one training trace. *)

include Detector.S

val of_trie : Seqdiv_stream.Seq_trie.t -> window:int -> model
(** Model reading its conditional counts straight out of a shared
    counting trie — what {!Detector.S.train_of_trie} exposes to the
    engine.  The trie must index the training trace at least [window]
    symbols deep.  Requires [2 <= window <= Seq_trie.max_len trie]. *)

val context_length : model -> int
(** [window − 1]: the number of conditioning elements. *)

val probability : model -> context:int array -> next:int -> float
(** Estimated [P(next | context)].  0 when the context was never seen.
    Requires [Array.length context = context_length model]. *)

val contexts : model -> int
(** Number of distinct contexts in the trained model. *)

val fold_contexts :
  model -> init:'a -> f:('a -> context:int array -> counts:int array -> 'a) -> 'a
(** Fold over the trained conditional-count table in ascending context
    order: each context (a fresh array of [window - 1] symbols) with its
    per-symbol continuation counts.  Deterministic traversal; used by
    model serialisation. *)

val of_context_counts :
  window:int -> alphabet_size:int -> (int array * int array) list -> model
(** Rebuild a model from serialised context counts.  Each counts array
    must have length [alphabet_size]; each context must have length
    [window - 1] and non-negative symbols.  Inverse of
    {!fold_contexts}. *)

val with_smoothing : model -> alpha:float -> model
(** Laplace-smoothed variant:
    [P̂(next | ctx) = (count + alpha) / (total + alpha·k)], and an unseen
    context predicts uniformly.  [alpha = 0] is the paper's
    maximum-likelihood detector.  Smoothing is a common deployment knob
    — and the A8 ablation shows it quietly destroys the maximal-response
    guarantee the paper's threshold-of-1 comparison rests on: with
    enough smoothing no response reaches 1 and every cell of the map
    degrades from capable to weak.  Requires [alpha >= 0]. *)

val smoothing : model -> float
(** The model's smoothing constant (0 unless {!with_smoothing} was
    applied). *)
