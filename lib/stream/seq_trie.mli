(** Counting trie over fixed-alphabet sequences — the shared data layer
    behind {!Seq_db}, {!Ngram_index} and the sequence detectors' hot
    paths.

    One single-pass build ({!of_trace}) indexes every n-gram of a trace
    for every length [1 .. max_len] at once, sharing prefixes
    structurally; one trie therefore serves all detector-window widths
    of an experiment grid.  The cursor API ({!mem_at}, {!count_at},
    {!freq_at}, {!context_at}) descends over raw [int array] slices and
    allocates nothing — it is the train-once/serve-every-window scoring
    path.  A string-key API compatible with {!Trace.key} is kept for
    serialisation, diagnostics and tests; unlike the cursor API it is
    limited to alphabets of at most 256 symbols (one byte per
    symbol). *)

type t

type node
(** A trie position reached by descent — used to answer several queries
    about one context without re-descending. *)

val create : alphabet_size:int -> max_len:int -> t
(** Empty trie for n-grams of length [1 .. max_len].
    Requires [alphabet_size >= 1] and [max_len >= 1]; alphabets larger
    than 256 are fully supported (only the string-key API is then
    unavailable). *)

val of_trace : max_len:int -> Trace.t -> t
(** Index every n-gram of the trace up to [max_len], in one
    O(length x max_len) pass. *)

val max_len : t -> int
val alphabet_size : t -> int

val add : t -> int array -> unit
(** Record one occurrence of a sequence and of each of its prefixes.
    The sequence length must be within [1 .. max_len]; symbols must be
    within the alphabet. *)

val add_at : t -> int array -> pos:int -> len:int -> unit
(** Incremental {!add} of the slice [a.(pos) .. a.(pos + len - 1)]
    without copying it out.  Requires the slice in bounds and
    [1 <= len <= max_len]. *)

val add_many_at : t -> int array -> pos:int -> len:int -> count:int -> unit
(** {!add_at} with multiplicity (used when deserialising counted
    models).  Requires [count > 0]. *)

(** {1 Cursor API — allocation-free lookups over raw slices} *)

val mem_at : t -> int array -> pos:int -> len:int -> bool
(** Whether the slice occurs.  Requires the slice in bounds and
    [1 <= len <= max_len].  Symbols outside the alphabet are simply
    absent (never an error), so foreign-symbol test traces score as
    foreign. *)

val count_at : t -> int array -> pos:int -> len:int -> int
(** Occurrences of the slice; 0 when absent. *)

val freq_at : t -> int array -> pos:int -> len:int -> float
(** Relative frequency among same-length windows; 0 when no window of
    that length was recorded. *)

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

(** {1 String-key API (alphabets up to 256 symbols)} *)

val count : t -> string -> int
(** Occurrences of a window key (see {!Trace.key}); 0 when absent.
    Requires [1 <= length <= max_len]. *)

val mem : t -> string -> bool
val is_foreign : t -> string -> bool

val total : t -> int -> int
(** Total windows recorded at a length (with multiplicity). *)

val freq : t -> string -> float
(** Relative frequency among same-length windows. *)

val is_rare : t -> threshold:float -> string -> bool
(** Present with relative frequency strictly below the threshold. *)

val distinct : t -> int -> int
(** Number of distinct sequences of a length. *)

val node_count : t -> int
(** Total allocated trie nodes — the memory-footprint proxy reported by
    {!Seqdiv_core.Engine.stats}. *)

(** {1 Traversal} *)

val iter_slice : t -> depth:int -> (int array -> int -> unit) -> unit
(** Visit every distinct sequence of one length with its count, in
    ascending lexicographic (string-key) order.  The symbol buffer
    passed to the callback is reused between calls — copy it if it
    escapes.  Requires [1 <= depth <= max_len]. *)

val iter_contexts : t -> depth:int -> (int array -> node -> unit) -> unit
(** Visit every distinct context of one length that has at least one
    recorded continuation, in ascending order, with its node (query it
    with {!context_total} / {!continuation_count}).  The symbol buffer
    is reused between calls.  Requires [1 <= depth < max_len]. *)

val pp_stats : Format.formatter -> t -> unit
(** One-line summary: max length, node count, distinct counts. *)
