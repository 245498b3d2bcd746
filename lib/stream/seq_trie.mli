(** Counting trie over fixed-alphabet sequences — the one store of
    training windows.  Every detector's model of normal behaviour, the
    data synthesiser's n-gram index and the text model formats read
    their windows out of it.

    One single-pass build ({!of_trace}, {!of_traces}) indexes every
    n-gram of the training data for every length [1 .. max_len] at once,
    sharing prefixes structurally; one trie therefore serves all
    detector-window widths of an experiment grid.  The cursor API
    ({!mem_at}, {!count_at}, {!is_rare_at}, {!context_at}) descends over
    raw [int array] slices and allocates nothing — it is the
    train-once/serve-every-window scoring path.  {!iter_slice} visits
    the distinct sequences of one length in ascending order, which is
    how detectors gather their training pairs and instances and how
    models are serialised.  Alphabets of any size are supported. *)

type t

type node
(** A trie position reached by descent — used to answer several queries
    about one context without re-descending. *)

val create : alphabet_size:int -> max_len:int -> t
(** Empty trie for n-grams of length [1 .. max_len].
    Requires [alphabet_size >= 1] and [max_len >= 1]. *)

val of_traces : max_len:int -> Trace.t list -> t
(** Index every n-gram up to [max_len] of every trace, in one
    O(total length x max_len) pass.  No n-gram spans two traces — the
    session-boundary rule of multi-trace training (e.g. per-process
    system-call traces).  The alphabet is the largest of the traces'
    alphabets. *)

val of_trace : max_len:int -> Trace.t -> t
(** [of_traces ~max_len [trace]]. *)

val max_len : t -> int
val alphabet_size : t -> int

val add_many_at : t -> int array -> pos:int -> len:int -> count:int -> unit
(** Record [count] occurrences of the slice [a.(pos) .. a.(pos + len -
    1)] and of each of its prefixes, without copying it out (used when
    deserialising counted models).  Requires the slice in bounds,
    [1 <= len <= max_len], [count > 0] and symbols within the
    alphabet. *)

(** {1 Cursor API — allocation-free lookups over raw slices} *)

val mem_at : t -> int array -> pos:int -> len:int -> bool
(** Whether the slice occurs.  Requires the slice in bounds and
    [1 <= len <= max_len].  Symbols outside the alphabet are simply
    absent (never an error), so foreign-symbol test traces score as
    foreign. *)

val count_at : t -> int array -> pos:int -> len:int -> int
(** Occurrences of the slice; 0 when absent. *)

val is_rare_at : t -> threshold:float -> int array -> pos:int -> len:int -> bool
(** Present with relative frequency strictly below the threshold. *)

val context_at : t -> int array -> pos:int -> len:int -> node option
(** The node of a Markov context slice, when the context was observed
    with at least one continuation.  Requires [len < max_len] windows to
    have been recorded deep enough, i.e. the trie must extend at least
    one symbol past [len]. *)

val context_total : node -> int
(** Occurrences of the context that continued one symbol deeper — the
    denominator of [P(next | context)]. *)

val root : t -> node
(** The empty-sequence node — the entry point of a read-only node walk
    (the {!Flat_automaton} compiler). *)

val occurrences : node -> int
(** Occurrences of the sequence this node spells — [count_at] without
    the descent. *)

val child_node : t -> node -> int -> node option
(** The child one symbol deeper, when that extension was recorded.
    Never creates a node.  Requires a valid alphabet symbol. *)

val continuation_count : t -> node -> int -> int
(** Occurrences of [context . symbol] — the numerator of
    [P(symbol | context)].  Requires a valid alphabet symbol. *)

(** {1 Per-length totals} *)

val total : t -> int -> int
(** Total windows recorded at a length (with multiplicity).  A
    sequence's relative frequency is its count over this total. *)

val distinct : t -> int -> int
(** Number of distinct sequences of a length. *)

val node_count : t -> int
(** Total allocated trie nodes — the memory-footprint proxy reported by
    {!Seqdiv_core.Engine.stats}. *)

(** {1 Traversal} *)

val iter_slice : t -> depth:int -> (int array -> int -> unit) -> unit
(** Visit every distinct sequence of one length with its count, in
    ascending lexicographic order.  The symbol buffer
    passed to the callback is reused between calls — copy it if it
    escapes.  Requires [1 <= depth <= max_len]. *)

val iter_contexts : t -> depth:int -> (int array -> node -> unit) -> unit
(** Visit every distinct context of one length that has at least one
    recorded continuation, in ascending order, with its node (query it
    with {!context_total} / {!continuation_count}).  The symbol buffer
    is reused between calls.  Requires [1 <= depth < max_len]. *)

val pp_stats : Format.formatter -> t -> unit
(** One-line summary: max length, node count, distinct counts. *)
