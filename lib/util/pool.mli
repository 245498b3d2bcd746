(** A fixed-size worker pool over OCaml 5 [Domain]s.

    The pool parallelises {e pure} work only: the experiment engine
    keeps every PRNG-consuming step (stream generation, injection
    search) serial and hands the pool nothing but train/score closures
    whose results are a function of their arguments.  Under that
    contract the pool is deterministic by construction — {!map},
    {!map2} and {!map_result} are order-preserving, so results are
    byte-identical for every [jobs] count, including [jobs = 1] which
    degrades to a plain serial map without spawning any domain.

    This is the only module of the library permitted to touch
    [Domain] / [Atomic] / [Mutex] (lint rule R6, concurrency-hygiene);
    everything above it stays single-domain and auditable. *)

type t

val create : jobs:int -> t
(** [create ~jobs] is a pool of [jobs] workers ([jobs] is clamped to
    at least 1).  A worker claims one task at a time, the best load
    balance for heavy tasks (training a detector). *)

val jobs : t -> int
(** The worker count the pool was created with. *)

val recommended_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — what [-j 0] resolves to in
    the executables. *)

type failure = {
  index : int;  (** position of the failed task in the input list *)
  exn : exn;  (** the exception the task raised *)
  backtrace : Printexc.raw_backtrace;
      (** captured where the exception was caught, on the worker *)
}
(** One isolated task failure, as captured by {!map_result}. *)

val map_result : t -> ('a -> 'b) -> 'a list -> ('b, failure) result list
(** Order-preserving parallel map with per-task fault isolation: every
    task runs in its own try frame, and a raising closure yields
    [Error] in {e its own} slot while every other task still runs to
    completion — no exception ever poisons the batch.  This is the
    primitive the engine's task supervisor retries and classifies
    over.  With [jobs = 1] the tasks run serially on the calling
    domain, still isolated. *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** Order-preserving parallel map.  With [jobs = 1] this is exactly
    [List.map f] on the calling domain.  With [jobs > 1] the calling
    domain participates as one of the workers, so [jobs - 1] domains
    are spawned per call.  If [f] raises on any element, every task is
    still run ({!map_result} underneath) and then the lowest-index
    failure is re-raised on the calling domain with its original
    backtrace. *)

val map2 : t -> ('a -> 'b -> 'c) -> 'a list -> 'b list -> 'c list
(** Order-preserving binary {!map}.  The lists must have equal
    lengths.  @raise Invalid_argument {e before any task starts or any
    domain is spawned} otherwise. *)
