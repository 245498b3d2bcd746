(** Construction and verification of minimal foreign sequences
    (Section 5.1 and 5.4.2).

    A {e foreign sequence} of length N is one whose every element belongs
    to the training alphabet but which never occurs in the training data.
    A {e minimal foreign sequence} (MFS) additionally has every proper
    contiguous sub-sequence present in the training data.  The paper
    composes its MFSs from rare sub-sequences, so this module also tracks
    rarity of the constituent 2-grams. *)

open Seqdiv_stream

type verdict =
  | Ok_minimal_foreign
  | Not_foreign of int  (** full sequence occurs; payload = count *)
  | Sub_foreign of int * int
      (** some proper sub-sequence is foreign; payload = (pos, len) of a
          missing sub-sequence *)
  | Too_short  (** length < 2 *)

val verify : Seq_trie.t -> int array -> verdict
(** Full minimality/foreignness check of a candidate against a training
    index.  The candidate length must not exceed the index depth. *)

val rare_twogram_count : Seq_trie.t -> threshold:float -> int array -> int
(** Number of 2-grams of the candidate that are rare in the training
    data at the given threshold. *)

val candidates :
  Seq_trie.t -> Alphabet.t -> size:int -> rare_threshold:float ->
  int array list
(** All minimal foreign sequences of the given size that can be built
    from the training data, ordered with the most rare-composed first
    (ties broken lexicographically, so the result is deterministic).

    For [size = 2] these are the structurally-absent 2-grams.  For larger
    sizes the search extends every (size−1)-gram present in the training
    data by each alphabet symbol and keeps the extensions that are
    foreign while both (size−1)-sub-sequences are present — a complete
    enumeration, feasible because the set of present (size−1)-grams in
    the paper's data is small.  Candidates with no rare 2-gram at all are
    kept only after all rare-composed ones (for [size >= 3] a minimal
    foreign sequence necessarily strays from the deterministic part of
    the cycle, so in practice all returned candidates are
    rare-composed).

    Requires [2 <= size <= Seq_trie.max_len index]. *)

val find :
  Seq_trie.t -> Alphabet.t -> size:int -> rare_threshold:float ->
  (int array, string) result
(** First candidate from {!candidates}, or a descriptive error when none
    exists (e.g. the training stream is too short for sub-sequences to be
    present). *)
