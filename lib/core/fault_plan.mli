(** Seeded fault-injection plans — the chaos harness the supervision
    tests, the experiment commands' [--chaos SEED] and
    [seqdiv serve --chaos-serve SEED] drive.

    A plan deterministically decides, per task, whether that task's
    execution raises {!Fault.Injected}.  Decisions are a {e stateless}
    hash of (plan seed, task key, attempt number): no PRNG state is
    read or advanced, so injection is identical at every jobs count,
    in every scheduling order, and across kill-and-resume runs.  Task
    keys are stable fingerprints of task content (detector, window,
    cell), assigned by the engine — never positional indices, which
    would shift under [--resume].  The serve layer keys a sub-batch by
    {!job_key} and its response frame by {!frame_key}.

    Fate of a task under a plan, by its key's hash [u ∈ [0, 1)]:
    - [u < fatal_rate] — fails {!Fault.Fatal} on {e every} attempt;
    - [u < fatal_rate + hang_rate] — {e hangs}: the task spins on
      {!Seqdiv_util.Deadline.hang} until the supervisor's armed
      deadline fires ({!Fault.Timeout}), or raises
      [Deadline.Hang_refused] when no deadline is armed;
    - [u < fatal_rate + hang_rate + transient_rate] — fails
      {!Fault.Transient} on its first [sticky] attempts, then succeeds;
    - otherwise — never faulted.

    In [seqdiv serve] a transient fate is a shard domain dying before
    the sub-batch applies (the supervisor restarts it from its
    journal), and a hang is ended by the shard's armed deadline.
    Independently, {!tear} decides whether a response frame is torn on
    the wire. *)

type t

val of_seed :
  ?transient_rate:float ->
  ?fatal_rate:float ->
  ?hang_rate:float ->
  ?torn_rate:float ->
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
    ([Engine.create ~deadline]) to terminate at all.  [torn_rate]
    (default 0) is the fraction of serve response frames {!tear}
    tears.
    @raise Invalid_argument if a rate, or the sum of the transient,
    fatal and hang rates, leaves [0, 1]. *)

val decide : t -> key:int64 -> attempt:int -> Fault.severity option
(** The injection decision for one execution of the task fingerprinted
    by [key]; [Some Timeout] marks a hang-fated task.  Pure; safe from
    any domain. *)

val trip : t -> key:int64 -> attempt:int -> unit
(** Act on {!decide}: raise {!Fault.Injected} for transient/fatal
    fates, spin on {!Seqdiv_util.Deadline.hang} for hang fates, return
    for the rest.  Injected payloads name seed, key and attempt, so
    rendered faults are deterministic. *)

val job_key : batch_id:int -> shard:int -> int64
(** Stable fingerprint of one serve sub-batch (the unit a shard domain
    executes). *)

val frame_key : batch_id:int -> shard:int -> int64
(** Fingerprint of that sub-batch's response frame, in a key space
    disjoint from {!job_key}. *)

val tear : t -> key:int64 -> attempt:int -> bool
(** Whether to tear this response frame on the wire: [torn_rate] of
    frame keys, and only at [attempt = 0], so the resend after the
    client reconnects goes through clean and torn-frame chaos always
    converges. *)

val describe : t -> string
(** One-line human rendering, for the [--chaos] and [--chaos-serve]
    banners. *)

val jitter : seed:int -> key:int64 -> float
(** The plan hash as a public uniform draw in [[0, 1)]: deterministic
    per-key randomness for consumers outside a fault decision (e.g. the
    bench client's backoff jitter).  Pure; safe from any domain. *)
