(** Session corpora: collections of traces that must be analysed
    per-trace.

    Real monitored data rarely arrives as one unbroken stream — it is a
    set of per-process system-call traces, per-login command sessions,
    and so on.  The cardinal rule is that a detector window must never
    span a session boundary: the last calls of one process and the
    first calls of the next are not a behavioural sequence.  This
    module packages that rule; {!Seq_trie.of_traces} builds a training
    index over the sessions that respects it. *)

open Seqdiv_util

type t

val of_traces : Trace.t list -> t
(** A corpus from a non-empty list of same-alphabet traces.
    @raise Invalid_argument on an empty list or mismatched alphabets. *)

val alphabet : t -> Alphabet.t
val count : t -> int
(** Number of sessions. *)

val total_length : t -> int
(** Sum of session lengths. *)

val traces : t -> Trace.t list
(** The sessions, in order. *)

val window_count : t -> width:int -> int
(** Total windows across sessions — strictly less than the window count
    of the concatenation whenever there are ≥ 2 sessions (boundary
    windows are excluded by construction). *)

val split : Trace.t -> session_length:int -> t
(** Cut one long trace into consecutive sessions of the given length
    (final remnant kept if at least [session_length / 2], otherwise
    dropped).  Requires [session_length >= 2]. *)

val generate :
  (Prng.t -> int -> Trace.t) -> Prng.t -> sessions:int -> length:int -> t
(** [generate make rng ~sessions ~length] builds a corpus by calling
    [make rng i] for each session index; each returned trace must have
    length [length].  Used by the synthetic session workloads in the
    examples and tests. *)
