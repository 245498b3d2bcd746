(** Streaming quantile sketches for adaptive thresholds.

    Adaptive thresholding (Bridges et al., "Setting the threshold for
    high throughput detectors") needs an online estimate of a tail
    quantile of each detector's score distribution, in bounded memory,
    with a provable rank-error bound.  [t] is a Greenwald–Khanna
    ε-summary: after [n] observations, {!quantile} answers any rank
    query within [⌊ε·n⌋] ranks of the exact order statistic, retaining
    O(1/ε · log(ε·n)) tuples.  Summaries are mergeable ({!merge}) and
    serializable ({!to_string}), so per-session sketch state rides in
    shard journals and shard-level sketches can be combined into a
    service-wide view.

    {b Determinism.}  The summary is a pure function of the
    observation {e sequence}: compression triggers on an observation
    counter, never on wall clock or buffer occupancy tuning, so feeding
    the same scores one at a time or in any batching yields
    bit-identical sketch state.  This is what lets the serve layer keep
    incident logs byte-identical across shard counts and kill/resume
    (see docs/ROBUSTNESS.md). *)

type t
(** A Greenwald–Khanna ε-summary over float observations. *)

val create : epsilon:float -> t
(** An empty summary with rank-error bound [epsilon].
    @raise Invalid_argument unless [0 < epsilon < 0.5]. *)

val epsilon : t -> float
(** The summary's rank-error bound. *)

val count : t -> int
(** Observations absorbed so far. *)

val tuples : t -> int
(** Tuples currently retained (the memory footprint; bounded). *)

val observe : t -> float -> unit
(** Absorb one observation.  Amortised O(log(tuples)); compression
    runs every [⌊1/(2ε)⌋] observations.
    @raise Invalid_argument on NaN. *)

val quantile : t -> float -> float
(** [quantile t phi] is a value whose rank among the [n] observations
    is within [⌊ε·n⌋] of [⌈phi·n⌉].  The minimum and maximum are
    retained exactly, so [quantile t 1.0] is the exact maximum.
    @raise Invalid_argument if the summary is empty or [phi] is outside
    [0..1]. *)

val rank : t -> float -> float
(** [rank t x] estimates the fraction of observations at or below [x]
    (the empirical CDF at [x]), within [epsilon] by the summary
    invariant.  The retained exact extremes pin the ends: [x] below the
    minimum is [0.], at or above the maximum [1.].  This is the query
    adaptive thresholds use to ask "what alarm rate does the current
    threshold imply?" — the inverse of {!quantile}.
    @raise Invalid_argument if the summary is empty or [x] is NaN. *)

val merge : t -> t -> t
(** [merge a b] summarises the concatenation of both observation
    streams.  The result's bound is [epsilon a +. epsilon b] (merging
    widens uncertainty); merge is commutative up to bit-identical
    state.  The arguments are not mutated. *)

val to_string : t -> string
(** Serialize, losslessly and without spaces (safe inside the
    space-delimited shard-journal line format).  Floats travel as
    IEEE-754 bit patterns, so [of_string] rebuilds bit-identical
    state. *)

val of_string : string -> t option
(** Parse {!to_string} output; [None] on any malformed input. *)

val equal : t -> t -> bool
(** Structural equality of the full sketch state (bit-level on
    values) — the test battery's merge-commutativity and
    roundtrip oracle. *)
