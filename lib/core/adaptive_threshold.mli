(** Per-detector adaptive thresholds under a system false-alarm budget.

    The paper fixes each detector's alarm threshold offline; deployed
    on a drifting stream that constant either floods the operator or
    goes blind.  Bridges et al. ("Setting the threshold for high
    throughput detectors", PAPERS.md) recast the threshold as the
    [(1 - rate)]-quantile of the detector's own score distribution,
    estimated online — the threshold then {e tracks} the distribution
    and the observed alarm rate holds near the configured budget.

    A {!t} is one detector's controller: a streaming quantile sketch
    ({!Quantile}) plus hysteresis.  {!step} is the only mutation: it
    decides the current window {e at the pre-update threshold} (the
    decision must not depend on the score being judged), absorbs the
    score, and refreshes the threshold every [refresh] windows once
    [warmup] windows have been seen.  The controller is a pure
    function of its score sequence, so per-session controllers keep
    the serve layer's incident logs byte-identical across shard counts
    and kill/resume (the sketch rides in {!to_string} tokens inside
    shard journals).

    {!allocate} is the ensemble half of Bridges et al.: split one
    system-wide alarm budget across heterogeneous members by the union
    bound, with the paper's Stide-suppresses-Markov policy
    ({!default_members}) as the wired default. *)

type config = {
  budget : float;  (** target per-detector false-alarm rate, in (0,1) *)
  epsilon : float;  (** GK rank-error bound (default [budget /. 4.]) *)
  warmup : int;  (** windows before the first refresh (default 128) *)
  refresh : int;  (** windows between refreshes (default 32) *)
  hysteresis : float;
      (** dead band, in {e probability space}: a refresh moves the
          threshold only when the alarm rate the sketch implies for
          the current threshold strays from [budget] by more than
          [hysteresis *. budget] (default 0.25, matching the default
          sketch error [epsilon = budget /. 4.]).  Probability space
          matters: on atom-heavy score distributions a tiny value move
          can reprice a large mass, so a value-space band would either
          chatter or stick *)
  initial : float;  (** threshold until the first refresh *)
}

val config :
  budget:float ->
  ?epsilon:float ->
  ?warmup:int ->
  ?refresh:int ->
  ?hysteresis:float ->
  initial:float ->
  unit ->
  config
(** Validated construction.
    @raise Invalid_argument unless [0 < budget < 1],
    [0 < epsilon < 0.5], [warmup >= 1], [refresh >= 1],
    [hysteresis >= 0] and [initial] is not NaN. *)

type t

val create : config -> t

val step : t -> float -> bool
(** Judge one window's score: [true] iff it is {e strictly above} the
    current threshold.  Strict comparison matters: the tracked quantile
    value can itself be an atom carrying arbitrary probability mass
    (detector scores are often discrete), and an at-or-above rule would
    charge that whole atom to the budget.  With [>] the rank guarantee
    bounds the long-run alarm rate by [budget + epsilon] for any score
    distribution.  After judging, absorb the score and, on a refresh
    boundary past warmup, move the threshold to the sketch's
    [(1 - budget)]-quantile if the move clears the hysteresis band.
    Deterministic in the score sequence alone. *)

val threshold : t -> float
(** The current (post-[step]) threshold. *)

val windows : t -> int
(** Windows judged so far. *)

val alarms : t -> int
(** Windows that alarmed. *)

val adjustments : t -> int
(** Refreshes that actually moved the threshold. *)

val observed_rate : t -> float
(** [alarms / windows] (0 before any window). *)

val to_string : t -> string
(** Lossless, space-free serialization of the full controller state
    (threshold, counters, sketch) — the shard-journal session token.
    The config is {e not} embedded: it is pinned by the journal
    context line and re-supplied to {!of_string}. *)

val of_string : config -> string -> t option
(** Parse a {!to_string} token back under [config]; [None] if the
    token is malformed or disagrees with [config] (another epsilon, or a
    sketch count other than the judged windows). *)

val equal : t -> t -> bool
(** Bit-level state equality (counters, threshold, sketch). *)

(** {1 Budget allocation across an ensemble}

    Per Bridges et al.: member detectors that raise alarms directly
    ([Emitter]) share the system budget in proportion to their
    weights — by the union bound the system false-alarm rate is at
    most the sum of member rates, so weights summing the budget keep
    the system under it.  A [Suppressor] member implements the paper's
    conjunctive scheme (Section 7): its alarms only {e gate} a named
    emitter's alarms, a conjunction that can only lower the system
    rate, so it is not charged against the budget; instead it runs at
    a deliberately {e relaxed} threshold so corroboration does not eat
    true detections. *)

type role =
  | Emitter
  | Suppressor of string  (** gates the named emitter's alarms *)

type member = { m_name : string; m_role : role; m_weight : float }

type allocation = { a_member : member; a_rate : float }
(** A member with its allocated per-detector alarm rate (the [budget]
    to put in that member's {!config}). *)

val default_members : member list
(** The paper's policy: Markov as the emitter, Stide as its
    suppressor (Stide's coverage is a subset of the Markov
    detector's, so uncorroborated Markov alarms are rare-sequence
    false alarms). *)

val allocate : system_rate:float -> member list -> allocation list
(** Split [system_rate] across [members], preserving order.  Emitters
    receive [system_rate * weight / sum-of-emitter-weights];
    suppressors receive [min 0.25 (16 * their-target's rate)].
    @raise Invalid_argument unless [0 < system_rate < 1], names are
    unique and non-empty, weights are positive and finite, at least
    one member is an [Emitter], and every suppressor names an emitter
    in the list. *)
