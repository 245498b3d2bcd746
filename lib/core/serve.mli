(** The [seqdiv serve] server loop: sharded multi-session streaming
    detection over a Unix or TCP socket.

    Sessions are routed by {!Seqdiv_stream.Frame.shard_of_session} to
    [shards] single-domain {!Session_table}s, all stepping one shared
    read-only compiled scorer.  Each connection gets a reader thread
    (decode, route, admit) and a writer thread (encode, send), all in
    the accept domain, so the server runs [shards + 1] domains whatever
    the number of connections; each shard owns a domain and a bounded
    ingress queue of sub-batches.

    {b Backpressure is honest}: admission is all-or-nothing across the
    shards a batch touches — if any queue is full the whole batch is
    rejected with a retry-after hint and {e nothing} is enqueued, so the
    client resends the identical batch later.  Nothing buffers
    unboundedly on the server.

    {b Durability}: with a journal directory, each shard commits the
    touched session snapshots and the batch's incident output to its
    own {!Shard_journal} before the batch is acknowledged, so a
    SIGKILLed server restarted with resume continues with byte-identical
    subsequent incident output, and re-acknowledges recently committed
    batches a reconnecting client resends.

    {b Determinism}: one shard per session and FIFO queues mean a
    session's events are applied in arrival order whatever the shard
    count; the per-session incident log therefore depends only on the
    per-session input order (proven against serial {!Online} replay by
    the qcheck suite).  Per-batch deadlines are the one escape hatch:
    a batch that blows its budget gets a [Failed] response and may
    leave its sessions partially advanced — the contract holds on runs
    without deadline failures.

    {b Supervision}: a shard domain that dies outside the per-batch
    handler is detected by the accept loop, its poison classified
    through {!Fault.classify}.  A Transient fate with a journal
    attached and restart budget left restarts the domain with state
    rebuilt from the journal (the committed batches the acks promised —
    extending the determinism contract to supervised restarts); any
    other fate degrades the shard: its job, its queue, and every future
    slice routed to it are answered [Failed] with the rendered fate,
    while the other shards keep serving.  The restart budget is
    {e consecutive}: it resets every time the shard answers a batch, so
    a sticky-bounded chaos crash rate always fully recovers.

    {b Overload control}: the [Rejected] retry hint is adaptive —
    queue depth times the shard's median recent service time, clamped
    to [[retry_after_ms, 1000]] ms — and slow clients are evicted
    rather than buffered: a connection that cannot drain its acks
    (out-channel overflow, or a write stalled past [write_timeout_ms])
    is shut down, counted in {!Frame.health}, and its fd reaped
    exactly once.

    This is the single module (with [lib/util/pool.ml]) allowed to
    touch Domain/Thread/Mutex/Condition/Atomic — lint rule R6 carries a
    standing exemption for it, justified in docs/LINTING.md. *)

open Seqdiv_stream
open Seqdiv_util

type address =
  | Unix_socket of string  (** bound after unlinking any stale socket *)
  | Tcp of string * int  (** host (numeric or name) and port *)

type config = {
  address : address;
  shards : int;  (** shard (and shard-domain) count, >= 1 *)
  queue_capacity : int;  (** sub-batches per shard queue, >= 1 *)
  retry_after_ms : int;
      (** {e floor} of the adaptive backpressure hint: rejections carry
          queue depth × median recent service time, clamped to
          [[retry_after_ms, 1000]] ms *)
  scorer : Flat_automaton.scorer;  (** shared read-only across shards *)
  threshold : float;
  adaptive : Adaptive_threshold.config option;
      (** when set ([--alarm-budget]), every session monitor owns an
          {!Adaptive_threshold} controller under this configuration:
          thresholds track the budget's tail quantile per session, the
          journal context pins the budget, and session snapshots carry
          sketch state so kill/resume stays byte-identical *)
  model_tag : string;  (** pins the model in journal contexts *)
  journal_dir : string option;
      (** per-shard journals land here as [shard-<i>.journal] *)
  resume : bool;  (** load the shard journals before serving *)
  deadline : Deadline.spec option;  (** per-batch budget, off by default *)
  clock : unit -> float;
      (** seconds, for service-time stats; injected like
          {!Seqdiv_util.Deadline}'s (executables pass
          [Unix.gettimeofday]) *)
  max_connections : int;
      (** concurrent-client cap; excess accepts are closed immediately.
          Connections whose peer hangs up are reaped, so the limit
          bounds concurrency, never the lifetime client count. *)
  max_restarts : int;
      (** consecutive supervised restarts of one shard domain before it
          degrades instead (>= 0; the budget resets whenever the shard
          answers a batch).  Restarting needs [journal_dir]: without a
          journal there is no honest state to restart from, so any
          shard-domain death degrades. *)
  write_timeout_ms : int;
      (** per-write stall budget (> 0); a client whose socket cannot
          absorb a response within it is evicted *)
  chaos : Fault_plan.t option;
      (** seeded serve-layer fault injection ([--chaos-serve]), off by
          default: transient fates crash the shard domain before the
          sub-batch applies, hang fates spin until [deadline] fires,
          and [torn_rate] of ack frames are torn on the wire *)
}

val default_queue_capacity : int
val default_retry_after_ms : int
val default_max_connections : int
val default_max_restarts : int
val default_write_timeout_ms : int

val run : ?on_ready:(unit -> unit) -> config -> Frame.shard_stats list
(** Bind, serve until a client sends [Quit], drain every queue, and
    return the final per-shard stats.  [on_ready] fires once the
    listener is bound (before the first accept).  SIGPIPE is ignored
    for the duration (dead clients surface as [EPIPE] and only tear
    down their own connection).
    @raise Invalid_argument on a non-positive [shards],
    [queue_capacity] or [write_timeout_ms], or a negative
    [max_restarts].
    @raise Shard_journal.Corrupt when resuming against journals from a
    different configuration.
    @raise Unix.Unix_error when the listener cannot be bound. *)
