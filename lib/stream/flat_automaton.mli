(** A counting trie compiled to an immutable flat automaton.

    The trie-descent scorers pay O(window) node hops per window — a
    pointer chase that re-reads [window - 1] symbols the previous window
    already consumed.  Compiling the depth-[depth] slice of a trie into
    an Aho-Corasick-style automaton (dense transition table plus failure
    links resolved away at compile time) makes scoring a live stream
    O(1) amortised per {e symbol}: one table read advances the state,
    and the state alone answers every per-window query.

    The state after feeding a stream is the longest suffix of that
    stream that is a path in the trie (capped at [depth] symbols);
    consequently [state_depth a s = depth a] holds exactly when the last
    [depth] symbols form a recorded window — the invariant the compiled
    Stide/t-Stide/Markov scorers ({!Seqdiv_detectors.Detector.S.compile})
    are built on.  Each state carries the occurrence count and
    continuation total of the trie node it was compiled from, plus its
    parent state, so frequency- and context-conditional scores need no
    descent either.

    Tables are [Bigarray]-backed: compact, cache-friendly, and mappable
    directly from a saved model file (the zero-copy load path of
    {!Seqdiv_detectors.Model_io}). *)

type t
(** A compiled automaton: transition table plus per-state metadata. *)

type table = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t
type score_table = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

val compile : Seq_trie.t -> depth:int -> t
(** Compile the depth-[depth] slice of a trie.  States are the trie
    nodes of depth at most [depth], numbered in breadth-first order with
    the root as state 0; missing transitions are resolved through
    failure links at compile time, so stepping never consults them.
    Cost is O(states x alphabet); [Seqdiv_util.Deadline.checkpoint] is
    polled throughout, so an armed deadline can interrupt a compile.
    Requires [1 <= depth <= Seq_trie.max_len trie]. *)

val depth : t -> int
val alphabet_size : t -> int
val states : t -> int

val start : int
(** The initial state (the root): 0. *)

val step : t -> int -> int -> int
(** [step a state symbol] consumes one stream symbol: one bounds check
    on the symbol and one table read.  Symbols outside the alphabet
    reset to {!start} (they extend no recorded sequence), mirroring how
    the trie treats them as simply absent.  Allocation-free.  [state]
    must be a valid state of [a]. *)

val state_depth : t -> int -> int
(** Length of the suffix the state represents.  Equal to [depth a]
    exactly when the last [depth a] symbols fed form a recorded
    window. *)

val state_count : t -> int -> int
(** Occurrences of the state's sequence in the training trace (the trie
    node's count); 0 only for the root. *)

val state_context_total : t -> int -> int
(** Occurrences of the state's sequence that continued one symbol
    deeper — {!Seq_trie.context_total} of the compiled node. *)

val state_parent : t -> int -> int
(** The state one symbol shorter (the trie parent); the root is its own
    parent.  For a full-depth state this is exactly the Markov context
    of the window. *)

(** {1 Scorers — a per-state response table} *)

type scorer
(** An automaton paired with one precomputed response per state:
    stepping plus one table read scores a window. *)

val make_scorer : t -> score:(int -> float) -> scorer
(** Tabulate [score state] for every state.  [score] must return values
    acceptable to {!Seqdiv_detectors.Response.make} (finite, in
    [0, 1]) for the detector using the scorer. *)

val automaton : scorer -> t
val state_score : scorer -> int -> float
(** The precomputed response of a state.  Allocation-free. *)

val state_alarms : scorer -> int -> float -> bool
(** [state_alarms scorer state threshold] is
    [state_score scorer state >= threshold], decided without boxing the
    score: the per-symbol alarm test of a static threshold.
    Allocation-free. *)

val score_table : scorer -> score_table
(** The backing table (read-only view), for serialisation. *)

(** {1 Quiet runs — many symbols per call} *)

type cursor = { scorer : scorer; mutable state : int }
(** A scorer and the state a stream has reached in it.  [state] must
    always be a valid state of [scorer]'s automaton: {!start}, a value
    {!step} returned, or one checked against {!states}. *)

val run_quiet :
  cursor ->
  threshold:float ->
  below:int ->
  int array ->
  pos:int ->
  stop:int ->
  int
(** [run_quiet c ~threshold ~below symbols ~pos ~stop] steps [c] over
    [symbols.(pos)], [symbols.(pos + 1)], ... as long as each state it
    reaches scores below [threshold], and returns the index of the
    first symbol it did not step: [stop], a symbol outside
    [0 .. min below (alphabet_size a) - 1], or the symbol whose state
    would score at or above [threshold].  Each stepped symbol is one
    table step and one score compare, and the call allocates nothing.
    Requires [0 <= pos] and [stop <= Array.length symbols]. *)

(** {1 Raw-table access — serialisation support} *)

val transitions : t -> table
val depths : t -> table
val counts : t -> table
val context_totals : t -> table
val parents : t -> table
(** Read-only views of the backing tables, row-major
    ([transitions] has [states x alphabet_size] entries, the rest
    [states]). *)

val of_tables :
  alphabet_size:int ->
  depth:int ->
  transitions:table ->
  depths:table ->
  counts:table ->
  context_totals:table ->
  parents:table ->
  t
(** Reassemble an automaton from its raw tables (the mmap-load path).
    Validates table dimensions and that every transition target, depth
    and parent is in range — the one full pass that keeps the
    allocation-free (and bounds-check-free) stepping safe on untrusted
    input.
    @raise Invalid_argument on inconsistent tables. *)

val scorer_of_tables : t -> score_table -> scorer
(** Reassemble a scorer from a loaded score table (one finite entry per
    state).
    @raise Invalid_argument on a length mismatch or non-finite entry. *)
