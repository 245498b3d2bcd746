(** Seeded fault-injection plans — the chaos harness the supervision
    tests and the CLI's [--chaos SEED] drive.

    A plan deterministically decides, per task, whether that task's
    execution raises {!Fault.Injected}.  Decisions are a {e stateless}
    hash of (plan seed, task key, attempt number): no PRNG state is
    read or advanced, so injection is identical at every jobs count,
    in every scheduling order, and across kill-and-resume runs.  Task
    keys are stable fingerprints of task content (detector, window,
    cell), assigned by the engine — never positional indices, which
    would shift under [--resume].

    Fate of a task under a plan, by its key's hash [u ∈ [0, 1)]:
    - [u < fatal_rate] — fails {!Fault.Fatal} on {e every} attempt;
    - [u < fatal_rate + hang_rate] — {e hangs}: the task spins on
      {!Seqdiv_util.Deadline.hang} until the supervisor's armed
      deadline fires ({!Fault.Timeout}), or raises
      [Deadline.Hang_refused] when no deadline is armed;
    - [u < fatal_rate + hang_rate + transient_rate] — fails
      {!Fault.Transient} on its first [sticky] attempts, then succeeds;
    - otherwise — never faulted. *)

type t

val of_seed :
  ?transient_rate:float ->
  ?fatal_rate:float ->
  ?hang_rate:float ->
  ?sticky:int ->
  seed:int ->
  unit ->
  t
(** [of_seed ~seed ()] is a plan injecting transient faults into
    [transient_rate] (default 0.05) of tasks, fatal faults into
    [fatal_rate] (default 0) of tasks, and cooperative hangs into
    [hang_rate] (default 0) of tasks.  A transient-fated task fails
    its first [sticky] attempts (default 1, clamped to at least 1) —
    keep [sticky] at most the engine's retry budget to prove full
    recovery, or raise it beyond to exercise budget exhaustion.  A
    hang-fated task requires a deadline armed around task execution
    ([Engine.create ~deadline]) to terminate at all.
    @raise Invalid_argument if a rate (or their sum) leaves [0, 1]. *)

val seed : t -> int
val transient_rate : t -> float
val fatal_rate : t -> float
val hang_rate : t -> float
val sticky : t -> int

val decide : t -> key:int64 -> attempt:int -> Fault.severity option
(** The injection decision for one execution of the task fingerprinted
    by [key]; [Some Timeout] marks a hang-fated task.  Pure; safe from
    any domain. *)

val trip : t -> key:int64 -> attempt:int -> unit
(** Act on {!decide}: raise {!Fault.Injected} for transient/fatal
    fates, spin on {!Seqdiv_util.Deadline.hang} for hang fates, return
    for the rest.  Injected payloads name seed, key and attempt, so
    rendered faults are deterministic. *)

val describe : t -> string
(** One-line human rendering, for [--chaos] banners. *)

val jitter : seed:int -> key:int64 -> float
(** The plan hash as a public uniform draw in [[0, 1)]: deterministic
    per-key randomness for consumers outside a fault decision (e.g. the
    bench client's backoff jitter).  Pure; safe from any domain. *)

(** Serve-layer chaos: the same stateless (seed, key, attempt) hash
    discipline, speaking the serve layer's failure modes — a shard
    domain dying outside the per-batch handler ([Crash], injected as
    {!Fault.Transient} so the supervisor restarts it), a shard hang
    ([Hang], terminated by the shard's armed deadline or refused as
    Fatal), and a response frame torn on the wire ([tear]).  Job fates
    and frame fates hash disjoint key spaces, so one seed drives both
    without correlation. *)
module Serve : sig
  type t

  type job_fate = Crash | Hang

  val of_seed :
    ?crash_rate:float ->
    ?hang_rate:float ->
    ?torn_rate:float ->
    ?sticky:int ->
    seed:int ->
    unit ->
    t
  (** [of_seed ~seed ()] is a serve plan crashing the shard domain on
      [crash_rate] of sub-batches (first [sticky] attempts only, so a
      supervisor with restart budget ≥ [sticky] fully recovers),
      hanging it on [hang_rate] of sub-batches (every attempt), and
      tearing [torn_rate] of response frames (first write only — the
      resend after reconnect passes).  All rates default to 0.
      @raise Invalid_argument if a rate (or [crash_rate + hang_rate])
      leaves [0, 1]. *)

  val seed : t -> int
  val crash_rate : t -> float
  val hang_rate : t -> float
  val torn_rate : t -> float
  val sticky : t -> int

  val job_key : batch_id:int -> shard:int -> int64
  (** Stable fingerprint of one sub-batch (the unit a shard domain
      executes). *)

  val frame_key : batch_id:int -> shard:int -> int64
  (** Fingerprint of that sub-batch's response frame, in a key space
      disjoint from {!job_key}. *)

  val job_fate : t -> key:int64 -> attempt:int -> job_fate option
  (** The injection decision for one execution of a sub-batch.  Pure;
      safe from any domain. *)

  val trip : t -> key:int64 -> attempt:int -> unit
  (** Act on {!job_fate}: raise {!Fault.Injected} [(Transient, _)] for
      crash fates, spin on {!Seqdiv_util.Deadline.hang} for hang fates
      (raising [Deadline.Hang_refused] when no deadline is armed),
      return for the rest. *)

  val tear : t -> key:int64 -> attempt:int -> bool
  (** Whether to tear this response frame on the wire.  Only
      [attempt = 0] ever tears: the resend after the client reconnects
      goes through clean, so torn-frame chaos always converges. *)

  val describe : t -> string
  (** One-line human rendering, for [--chaos-serve] banners. *)
end
