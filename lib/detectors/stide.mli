(** Stide — sequence time-delay embedding (Forrest et al. 1996;
    Warrender et al. 1999).

    The similarity metric is exact matching: a test window scores 0 when
    an identical window exists in the normal database and 1 otherwise
    (Section 5.2).  No frequencies or probabilities are involved, which
    is why Stide is blind to rare-but-seen sequences and detects a
    minimal foreign sequence only when the detector window is at least
    as long as the anomaly. *)

open Seqdiv_stream

include Detector.S

val trie : model -> Seq_trie.t
(** The normal database backing a trained model: its [window]-slice
    holds the distinct window-sequences with their training counts. *)

val of_trie : Seq_trie.t -> window:int -> model
(** Model viewing the [window]-slice of a trie — what
    {!Detector.S.train_of_trie} exposes to the engine, and how a
    multi-session corpus ({!Seqdiv_stream.Seq_trie.of_traces}) or a
    deserialised database becomes a model.  Requires
    [1 <= window <= Seq_trie.max_len trie]. *)
