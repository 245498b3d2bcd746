(** One shard's session registry — the single-domain heart of the
    serve layer.

    A table owns the {!Online} monitors of every session routed to its
    shard and applies sub-batches of framed events to them in arrival
    order.  It is deliberately socket-free and domain-free: the
    concurrent server ({!Serve}) runs one table per shard domain, and
    the determinism qcheck drives tables directly — same inputs, any
    shard count, kill/resume included, same per-session incident log as
    a serial {!Online} replay.

    Monitors are created on first sight of a session id (every table
    shares one read-only compiled scorer) and dropped on
    [End_of_session].  When a journal is attached, {!apply} commits the
    touched sessions' snapshots and the batch's incident output before
    returning — the caller acknowledges only durable state — and resent
    batches inside the retained history window are answered from the
    journal instead of being applied twice (exactly-once across the
    ack/crash window). *)

open Seqdiv_stream

type t

val create :
  scorer:Flat_automaton.scorer ->
  threshold:float ->
  ?adaptive:Adaptive_threshold.config ->
  ?journal:Shard_journal.t ->
  shard:int ->
  unit ->
  t
(** A table stepping [scorer] at [threshold] (both shared, read-only).
    With [adaptive], every monitor the table creates owns its own
    {!Adaptive_threshold} controller under that configuration, and
    journal snapshots carry the controller's serialized state — so
    kill/resume stays byte-identical even while thresholds move.  With
    [journal], previously committed sessions and batch records are
    restored from it — pass a freshly resumed {!Shard_journal.t} to
    continue a killed run (the journal must have been written under the
    same [adaptive] configuration; {!Online.restore} rejects a
    mismatch). *)

val apply : t -> batch_id:int -> Frame.event list -> Frame.incident_event list
(** Apply one sub-batch (already routed to this shard) and return the
    incident events it emitted, in emission order.  Each [Data] event's
    symbols are stepped in runs of {!Online.advance_run}, so a symbol
    that neither opens nor closes an incident allocates nothing.
    Feeding polls {!Seqdiv_util.Deadline.checkpoint} after every 1024th
    symbol of the batch (no run crosses one), so an armed per-batch
    deadline can interrupt a runaway batch.  A [batch_id]
    already in the retained history is {e not} re-applied: its recorded
    incident events are returned again verbatim.
    @raise Invalid_argument on a symbol outside the scorer's validated
    range (the codec rejects those first on real connections). *)

(** {1 Stats — the meta-analysis axes} *)

val shard : t -> int
val sessions_resident : t -> int
val events_applied : t -> int
val symbols_applied : t -> int
val batches_applied : t -> int

val batches_replayed : t -> int
(** Resent batches answered from history without re-applying. *)

val windows_scored : t -> int
(** Completed windows judged by this shard: the restored monitors'
    counts plus every window judged since {!create} — a running total,
    O(1) to read.  Exactly-once across kill/resume under adaptive
    thresholding (the counts ride in the journal); on the static path a
    restored monitor's count restarts at its resumable position. *)

val alarm_windows : t -> int
(** Windows that alarmed, with the same exactness contract as
    {!windows_scored} (a restored static monitor contributes 0). *)

val current_threshold : t -> float
(** The shard's published alarm threshold: the configured constant on
    the static path, or the maximum over resident monitors' adaptive
    thresholds (falling back to the configured starting point when no
    session is resident).  Max is iteration-order-independent, keeping
    serve health frames byte-stable. *)

val bytes_resident : t -> int
(** Estimated heap bytes held by the table: resident monitors plus the
    batch-history window (an estimate from per-entry word counts, not a
    GC measurement). *)
