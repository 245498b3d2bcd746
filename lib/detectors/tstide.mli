(** t-stide — stide with a frequency threshold (Warrender, Forrest &
    Pearlmutter 1999).

    The paper contrasts detectors that can respond to {e rare} sequences
    (Markov, NN) with those that cannot (Stide, L&B), and notes that the
    literature "remains ambiguous about the alarm-worthiness of rare
    sequences" (Section 5.1).  t-stide is the canonical rare-sensitive
    variant of Stide from the same lineage: a test window is anomalous
    when it is foreign {e or} its relative frequency in the training
    data falls below a threshold.  It is included as an extension
    (experiment E1): its coverage patches exactly the blind triangle of
    Stide's map, landing on the Markov detector's coverage — with the
    same rare-sequence false-alarm exposure.

    Not part of the paper's four studied detectors; see
    {!Registry.extended}. *)

open Seqdiv_stream

val default_threshold : float
(** 0.005 — the paper's rare-sequence definition. *)

include Detector.S

val train_with : threshold:float -> window:int -> Trace.t -> model
(** {!train} with an explicit rarity threshold. *)

val threshold : model -> float
(** The rarity threshold of a trained model. *)

val of_trie : Seq_trie.t -> window:int -> model
(** Model (at {!default_threshold}) viewing the [window]-slice of a
    shared trie — what {!Detector.S.train_of_trie} exposes to the
    engine.  Requires [2 <= window <= Seq_trie.max_len trie]. *)
