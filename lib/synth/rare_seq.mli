(** Rare-sequence anomalies (extension experiment E2).

    Section 5.1 of the paper distinguishes {e foreign} sequences (never
    in training) from {e rare} ones (present but infrequent), notes that
    only some detectors can respond to the latter, and deliberately
    evaluates on foreign sequences only.  This module supplies the rare
    counterpart: sequences that occur in the training data with relative
    frequency below the rare threshold, injectable with the same
    boundary-clean machinery as minimal foreign sequences (all their
    sub-sequences exist in training, so the {!Injector} verification
    applies unchanged). *)

open Seqdiv_stream

val candidates :
  Seq_trie.t -> size:int -> rare_threshold:float -> int array list
(** Distinct training sequences of the given size that are rare at the
    threshold, rarest first (ties broken lexicographically).  Requires
    [2 <= size <= Seq_trie.max_len index]. *)

val find :
  Seq_trie.t -> size:int -> rare_threshold:float ->
  (int array, string) result
(** First candidate, or a descriptive error when the training data has
    no rare sequence of that size. *)
