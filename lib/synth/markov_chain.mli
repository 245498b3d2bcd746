(** First-order Markov chains over an alphabet.

    The paper's evaluation data is produced by a Markov-model transition
    matrix (Section 5.3).  This module holds the matrix, validates it,
    and samples traces from it. *)

open Seqdiv_stream
open Seqdiv_util

type t

val of_matrix : Alphabet.t -> float array array -> t
(** [of_matrix a p] builds a chain with transition matrix [p], where
    [p.(i).(j)] is the probability of symbol [j] following symbol [i].
    Rows must be length [size a], non-negative, and sum to a positive
    value (they are normalised).  @raise Invalid_argument on shape or
    sign errors. *)

val prob : t -> int -> int -> float
(** Normalised transition probability [i -> j]. *)

val successors : t -> int -> int list
(** Symbols reachable from [i] in one step (positive probability),
    ascending. *)

val has_structural_zeros : t -> bool
(** Whether some transition has probability exactly 0 — the precondition
    for foreign 2-grams to exist. *)

val paper_chain : Alphabet.t -> deviation:float -> t
(** The chain behind the paper's training data: a deterministic cycle
    [0 -> 1 -> ... -> k-1 -> 0] taken with probability [1 - deviation];
    with probability [deviation] the chain jumps to one of the symbols
    at cyclic distance 2 or 3 ahead (shared equally), after which it
    resumes the cycle from the new symbol.  All remaining transitions
    are structural zeros, so foreign 2-grams exist.  Requires
    [size >= 5] and [0 <= deviation < 1].

    With the paper's parameters ([deviation] ≈ 0.02, 1M elements) about
    98 % of the stream is the pure repeating cycle and each deviant
    2-gram has relative frequency well below the 0.5 % rare
    threshold. *)

val generate : t -> Prng.t -> start:int -> len:int -> Trace.t
(** Sample a trace of [len] symbols beginning at symbol [start].
    Requires a valid start symbol and [len >= 1]. *)

val stationary_cycle : t -> Trace.t
(** The deterministic backbone [0 1 ... k-1] as a one-period trace
    (used to build clean background data). *)
