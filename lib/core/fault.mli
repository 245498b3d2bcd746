(** Fault taxonomy for supervised execution.

    The engine's task supervisor isolates every train/score task
    ({!Seqdiv_util.Pool.map_result}), classifies what each raised, and
    either retries or degrades:

    - {e transient} faults are worth retrying — re-running the task may
      succeed.  The only transient faults in this tree are the ones the
      seeded chaos harness injects ({!Injected} with {!Transient});
      a genuine exception from a {e pure} train/score closure would
      deterministically recur, so everything else classifies as fatal.
    - {e fatal} faults are not retried: the cell (or the cells depending
      on a failed training) degrade to
      {!Seqdiv_core.Outcome.Failed} carrying the fault, and the rest of
      the run proceeds.
    - {e timeout} faults ({!Seqdiv_util.Deadline.Exceeded} caught at a
      checkpoint) are not retried either — a task that spent its whole
      budget would spend another to learn nothing — but they render
      distinctly ([failed:timeout]) because the remedy is a bigger
      [--deadline-ms], not a detector fix.

    {!classify} is the single policy point: a new transient condition
    (e.g. a flaky external model backend) is added here, nowhere else. *)

type severity = Transient | Fatal | Timeout

exception Injected of severity * string
(** The chaos harness's exception ({!Fault_plan.trip}).  The payload
    describes the injection site deterministically, so faulted runs
    render identically across repeats. *)

type t = {
  severity : severity;
  origin : string;  (** [Printexc.to_string] of the causing exception *)
  attempts : int;  (** executions consumed before the supervisor gave up *)
  backtrace : string;  (** diagnostic only — excluded from {!equal} *)
}
(** The record of one task failure, as carried by
    {!Seqdiv_core.Outcome.Failed}. *)

val classify : exn -> severity
(** {!Injected} faults carry their own severity;
    {!Seqdiv_util.Deadline.Exceeded} is {!Timeout}; every other
    exception is {!Fatal} (pure tasks fail deterministically, so
    retrying cannot help). *)

val is_asynchronous : exn -> bool
(** [Out_of_memory] and [Stack_overflow]: process-level exhaustion that
    supervised paths must re-raise rather than classify — rendering one
    into a per-task failure would hide that the whole process is dying. *)

val of_exn : attempts:int -> exn -> Printexc.raw_backtrace -> t
(** Record a failure: classify the exception and capture its rendering
    and backtrace. *)

val severity_to_string : severity -> string
val to_string : t -> string

val equal : t -> t -> bool
(** Structural equality on severity, origin and attempts.  Backtraces
    are ignored: they may legitimately differ between byte-identical
    runs. *)

exception Error of t
(** Raised by engine entry points whose signature has no failure slot
    (e.g. {!Engine.train_batch}) when a task failure survives the retry
    budget. *)
