(** Cooperative per-task deadlines — the watchdog half of the
    supervision layer.

    The engine's supervisor can isolate and classify a fault, but a
    task that {e never returns} gives it nothing to classify.  A
    {!spec} bounds such tasks cooperatively: the supervisor arms the
    spec around each task ({!with_deadline}), and the train/score hot
    loops call {!checkpoint} periodically.  When the armed budget is
    exhausted the checkpoint raises {!Exceeded}, which
    {!Seqdiv_core.Fault.classify} maps to the non-retried [Timeout]
    severity — the hung cell degrades to a visible failure instead of
    stalling the run.

    {b The clock is injected}, never read from the wall by this module:
    executables pass [Unix.gettimeofday]; tests pass a deterministic
    virtual clock ([test/support/fake_clock.ml]) so every deadline path
    runs without sleeping.

    {b Determinism.}  {!Exceeded} carries only the budget (a
    configuration constant), never the measured elapsed time, so the
    rendered fault of a timed-out cell is byte-identical across runs
    and jobs counts.

    {b Domain-locality.}  The ambient deadline is [Domain.DLS] state:
    arming is visible only to the arming domain, which is exactly the
    pool's execution model (one task at a time per domain).
    {!checkpoint} from a domain with no armed deadline is a no-op, so
    library code may checkpoint unconditionally. *)

type spec
(** A deadline policy: a monotonic clock (seconds, as [float]) plus a
    budget in milliseconds.  Reusable — each {!arm}/{!with_deadline}
    takes a fresh start-time snapshot. *)

type t
(** An armed deadline: a [spec] plus the instant it started. *)

exception Exceeded of int
(** Raised by {!check}/{!checkpoint} when the armed budget (the
    payload, in milliseconds) is spent.  Deliberately carries no
    elapsed-time measurement — see the determinism note above. *)

exception Hang_refused
(** Raised by {!hang} when no deadline is armed: without a watchdog the
    spin would be a true hang, so it refuses to start. *)

val spec : clock:(unit -> float) -> budget_ms:int -> spec
(** [spec ~clock ~budget_ms] is a deadline policy.  [clock] must be
    monotone non-decreasing as observed by any single domain.
    @raise Invalid_argument if [budget_ms <= 0]. *)

val arm : spec -> t
(** Snapshot the clock and start the countdown. *)

val expired : t -> bool
(** Whether the armed budget is already spent. *)

val check : t -> unit
(** @raise Exceeded iff {!expired}. *)

val with_deadline : spec -> (unit -> 'a) -> 'a
(** [with_deadline spec f] arms a fresh deadline as the calling
    domain's ambient deadline, runs [f], and restores the previous
    ambient deadline on the way out (normal return or raise).  The
    supervisor wraps every train/score task execution in this. *)

val checkpoint : unit -> unit
(** The hook library hot loops call.  A no-op when the calling domain
    has no ambient deadline armed.
    @raise Exceeded when the ambient deadline is armed and spent. *)

val active : unit -> bool
(** Whether the calling domain currently has an ambient deadline. *)

val hang : unit -> 'a
(** A {e cooperative} infinite loop: spin on {!checkpoint} until the
    ambient deadline fires.  The chaos harness's stand-in for a task
    that never returns ([Fault_plan] hang injection).
    @raise Exceeded when the ambient deadline fires.
    @raise Hang_refused if no deadline is armed. *)
