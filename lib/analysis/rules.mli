(** The rule set and the engine that applies it.

    Five rules guard the properties the paper's methodology depends on
    (see docs/LINTING.md for the full rationale):

    - [R1 determinism] — no ambient randomness or wall-clock reads, and
      no order-sensitive hash-table iteration, in library code.
    - [R2 output-hygiene] — no direct printing from library code.
    - [R3 partiality] — no [failwith] / [assert false] / [invalid_arg] /
      [Option.get] / [List.hd] / [List.tl] in library code outside
      explicitly whitelisted sites.
    - [R4 interfaces] — every library [.ml] has a matching [.mli].
    - [R5 detector-contract] — every detector packed into
      [lib/detectors/registry.ml] exposes the [Detector.S] contract
      ([name] / [train] / [score]).
    - [R6 concurrency] — [Domain] / [Thread] / [Atomic] / [Mutex] /
      [Condition] / [Semaphore] in library code are confined to
      [lib/util/pool.ml] and [lib/core/serve.ml] (or a
      [lint: allow concurrency] site), so every place parallelism can
      enter a result is auditable.
    - [R7 hot-path] — detector [score] / [score_range] bodies (in
      [lib/detectors]) must not build window strings ([Trace.key]) or
      run string-keyed / hash-table lookups per window; scoring descends
      the shared trie over the raw trace via the [*_at] cursor API.
      Escape hatch: [lint: allow hot-path].
    - [R8 swallow] — no catch-all exception handlers
      ([try ... with _ ->], [with e -> ...], or
      [match ... with exception e ->]) in library code outside
      [lib/core/fault.ml]: arbitrary failures route through the
      supervisor via [Fault.classify].  Escape hatch:
      [lint: allow swallow].

    Three whole-program rules run over the cross-module call graph
    ({!Callgraph} / {!Reach} / {!Effects}):

    - [R9 checkpoint] — every loop or recursive binding reachable from
      a train/score hot path must reach [Deadline.checkpoint], either
      directly, through a callee, or through a checkpointing caller.
      Escape hatch: [lint: allow checkpoint].
    - [R10 fault-custody] — every exception constructor raisable on a
      supervised-task path must have an explicit [Fault.classify]
      case.  Escape hatch: [lint: allow fault-custody].
    - [R11 allocation] — no closure construction, partial application,
      or boxed allocation on the per-window scoring path, which
      includes the per-symbol entries [Online.advance],
      [Online.advance_run] and [Flat_automaton.run_quiet] and all they
      call.  Escape hatch: [lint: allow allocation].

    One more per-file rule guards crash safety:

    - [R13 durability] — [Unix.fsync], [Sys.rename] and [Unix.rename]
      in library code are confined to [lib/core/wal.ml], so every
      durable write goes through the write-ahead log.  Escape hatch:
      [lint: allow durability].

    One meta-rule keeps the whitelist honest:

    - [R12 suppression] — allow markers must name known rules exactly
      (unknown tokens and empty markers are errors) and carry a
      [— justification] clause (bare markers warn).

    A further pseudo-rule, [R0 syntax], reports files that do not
    parse.

    The engine is pure: it maps a list of {!Source.t} values to a
    sorted list of {!Diagnostic.t}, which is what makes the rules
    testable on inline fixtures. *)

type t = {
  id : string;
  name : string;
  severity : Diagnostic.severity;
  doc : string;
}

val all : t list
(** Every rule the engine knows, [R0]–[R13], in order. *)

val syntax : t
val determinism : t
val output_hygiene : t
val partiality : t
val interfaces : t
val detector_contract : t
val concurrency : t
val hot_path : t
val swallow : t
val checkpoint : t
val fault_custody : t
val allocation : t
val suppression : t
val durability : t

val check_file : Source.t -> Diagnostic.t list
(** File-local rules only ([R0]–[R3], [R6]–[R8], [R12] and [R13]),
    whitelist already applied.  Project-wide rules need the whole file
    set; use {!run}. *)

val run : Source.t list -> Diagnostic.t list
(** All rules over a file set, whitelist applied, sorted by
    {!Diagnostic.compare}. *)
