(** The execution engine: every experiment driver reduces its work to
    an explicit plan of {e train tasks} (one per detector × window,
    deduplicated through a trained-model cache) and {e score tasks}
    (one per performance-map cell), which the engine executes
    train-phase-then-score-phase on a {!Seqdiv_util.Pool} of worker
    domains.

    {b Determinism contract.}  Results are byte-identical for every
    jobs count.  The engine only ever hands the pool pure work:
    training (each detector seeds its own PRNG deterministically) and
    scoring (a function of model and trace).  Everything that consumes
    shared randomness or mutates shared state — suite generation,
    injection search, the model cache, the stage counters — runs on
    the calling domain.  {!Pool.map} is order-preserving, so phase
    outputs are assembled in plan order regardless of which domain
    computed them.

    {b Cache keying.}  A trained model is cached under
    (detector name, window, training-trace fingerprint), where the
    fingerprint is a 64-bit FNV-1a hash of the trace contents.  The
    cache is what removes the duplicated retraining between
    [Experiment] and [Deployment]: any driver asking for the same
    (detector, window, trace) triple gets the already-trained model.

    {b Shared tries.}  Alongside the model cache, the engine keeps one
    counting {!Seqdiv_stream.Seq_trie} per training-trace fingerprint
    (the deepest requested so far).  Detectors that declare
    {!Seqdiv_detectors.Detector.S.train_of_trie} — every registered
    detector but HMM — train from that trie: a whole detector x window
    grid over one training trace costs a single O(length x max window)
    trace scan instead of one scan per cell.  Every cache miss of a
    train phase then trains in one supervised batch on the pool,
    largest window first.  Trie construction and reuse are reported in
    {!stats}.

    {b Instrumentation.}  Per-stage wall-clock timers and task
    counters accumulate in {!stats} and are logged through [Logs]
    (source ["seqdiv.engine"]).  The clock is injected — the library
    default reads no wall clock at all (timings stay 0); executables
    pass [Unix.gettimeofday] to get real [--trace] output.

    {b Supervision.}  Every train and score task executes isolated
    ({!Seqdiv_util.Pool.map_result}): an exception lands in that task's
    own result slot, is classified by {!Fault.classify}, and — when
    transient — the task is re-run on the calling domain's schedule up
    to twice more.  Retry bookkeeping lives in {!stats} and in each
    fault's [attempts] field, never in any PRNG state, so a recovered
    run is byte-identical to an undisturbed one.  A task
    that fails past the budget degrades its cell to
    {!Outcome.Failed} (map plans) or raises {!Fault.Error}
    ({!train_batch}).  Chaos testing hooks in through
    {!Fault_plan}: a seeded plan trips tasks by {e content key} — a
    fingerprint of what the task computes — identically at every jobs
    count and across resumes.

    {b Journal.}  Map plans optionally record every completed cell in
    a crash-safe {!Journal}; a resumed run answers journalled cells
    without training or scoring (counted as [cells_resumed]) and
    re-executes only the rest, byte-identically to a fresh run.
    Failed cells are never journalled, so a resume retries them. *)

open Seqdiv_stream
open Seqdiv_detectors
open Seqdiv_synth

type t

val create :
  ?clock:(unit -> float) ->
  ?jobs:int ->
  ?fault_plan:Fault_plan.t ->
  ?deadline:Seqdiv_util.Deadline.spec ->
  unit ->
  t
(** A fresh engine with an empty model cache.  [jobs] defaults to 1
    (strictly serial); [clock] defaults to [fun () -> 0.] so that
    library code performs no wall-clock reads.  A transiently-failed
    task gets up to 2 {e additional} executions.  [fault_plan] arms the
    seeded chaos harness: every train/score task consults the plan
    before running (tests and the CLI's [--chaos SEED] only).  [deadline] arms a
    cooperative watchdog afresh around every supervised task execution
    (and every trie build): a task that checkpoints past the budget
    degrades its cell to {!Outcome.Failed} with the non-retried
    [Timeout] severity instead of stalling the run.  Models are scored
    by each detector's own [score_range]; compiled flat-automaton
    scorers ({!Trained.compile}) are for the deployments that step
    them. *)

val default : t option -> t
(** [default (Some e)] is [e]; [default None] is a fresh serial
    engine — the idiom drivers use for their [?engine] parameter. *)

val pool : t -> Seqdiv_util.Pool.t
(** The engine's pool, for drivers that parallelise pure per-item
    work of their own (e.g. per-window false-alarm scoring).  The
    pool contract applies: closures must not touch the engine, any
    PRNG, or other shared mutable state. *)

(** {1 Stage instrumentation} *)

type stats = {
  train_executed : int;  (** train tasks actually run *)
  train_cached : int;  (** train tasks satisfied by the model cache *)
  score_tasks : int;  (** score tasks run *)
  train_seconds : float;  (** wall-clock spent in train phases *)
  score_seconds : float;  (** wall-clock spent in score phases *)
  tries_built : int;  (** shared training tries constructed *)
  trie_hits : int;
      (** trie-capable models served as views of an already-built trie
          (rather than triggering a trie construction) *)
  trie_nodes : int;  (** total nodes across all constructed tries *)
  faults_injected : int;
      (** task executions the chaos plan fated: injected faults and
          hangs *)
  retries : int;  (** task re-executions granted by the supervisor *)
  cells_failed : int;
      (** cells degraded to {!Outcome.Failed} (score faults and cells
          downstream of a failed training) *)
  cells_timed_out : int;
      (** the subset of [cells_failed] whose fault severity is
          [Timeout] (deadline expiry) *)
  cells_resumed : int;  (** cells answered from the journal *)
}

val stats : t -> stats
(** Cumulative counters since creation. *)

val pp_stats : Format.formatter -> stats -> unit
(** One-line rendering used by the [--trace] flag of the
    executables. *)

(** {1 Training (the only [Trained.train] call sites in the tree)} *)

val train : t -> Detector.t -> window:int -> Trace.t -> Trained.t
(** Train one model through the cache, on the calling domain. *)

val train_batch : t -> (Detector.t * int * Trace.t) list -> Trained.t list
(** The train phase of a plan: deduplicate the (detector, window,
    trace) specs against each other and the cache, train the misses in
    parallel on the pool under supervision, commit them to the cache,
    and return one trained model per input spec, in input order.
    @raise Fault.Error if any spec's training failed past the retry
    budget (use {!train_batch_result} to keep per-spec failures). *)

val train_batch_result :
  t ->
  (Detector.t * int * Trace.t) list ->
  (Trained.t, Fault.t) result list
(** {!train_batch} with per-spec fault isolation: a failed training
    yields [Error fault] in its own slot (and stays out of the cache);
    every other spec still trains.  Specs sharing a failed spec's cache
    key share its fault. *)

(** {1 Score phase} *)

val score_batch : t -> (Trained.t * Injector.injection) list -> Outcome.t list
(** Score every (model, injection) cell in parallel on the pool under
    supervision; results in input order.  A cell whose task failed past
    the retry budget comes back as {!Outcome.Failed} — never an
    exception. *)

(** {1 Whole-experiment plans} *)

val performance_map :
  ?journal:Journal.t -> t -> Suite.t -> Detector.t -> Performance_map.t
(** Plan and execute one detector's map over the suite's own injected
    streams.  With [journal], completed cells are recorded (and
    journalled cells of a resumed run are answered without
    re-execution — see {!all_maps}). *)

val performance_map_over :
  t ->
  Suite.t ->
  injection:(anomaly_size:int -> window:int -> Injector.injection) ->
  Detector.t ->
  Performance_map.t
(** Like {!performance_map} against caller-supplied injections.  The
    [injection] callback runs serially on the calling domain, once per
    cell in row-major order, before the score phase starts — callbacks
    may therefore consume PRNG state or count calls. *)

val all_maps :
  ?journal:Journal.t -> t -> Suite.t -> Detector.t list -> Performance_map.t list
(** One plan for all detectors: a single train phase over every
    (detector, window) pair followed by one supervised score batch per
    detector — the paper's Figures 3–6 sweep.

    With [journal], cells the journal already holds (keyed on the
    suite's seed, detector, window and anomaly size) are answered from
    it directly — their training and scoring are skipped — and every
    newly completed, non-failed cell is recorded, with a crash-safe
    flush after each detector.  An interrupted run resumed against its
    journal therefore re-executes only the missing cells and produces
    byte-identical maps at any jobs count.  Journals key suite-injected
    cells only, which is why {!performance_map_over} (caller-supplied
    injections) takes no journal. *)
