(** Crash-safe per-shard journal for the serve layer.

    Each shard of a journalled [seqdiv serve] records, after every
    batch it applies, the feed-relevant state of the sessions the batch
    touched ({!Seqdiv_core.Online.snapshot} digests) plus the batch's
    id and emitted incident events.  A killed server restarted with
    [--resume] rebuilds every monitor exactly where its last
    acknowledged batch left it — so the subsequent incident output is
    byte-identical to an uninterrupted run — and re-acknowledges
    recently applied batches from the retained batch records instead of
    applying them twice.

    The records live in a {!Wal}, which owns the file layout, the
    per-line digests, the fsync'd append and atomic rewrite, and
    torn-tail recovery.  This module adds {e commit groups}.  A
    {!commit} appends the records buffered since the last commit
    followed by a commit marker [k <count>]; recovery applies only
    complete, committed groups and drops an interrupted tail group
    whole.  This is what makes a flush atomic — a crash mid-append can
    never leave session states advanced past a batch without the batch
    record that says so (the window in which a resent batch would be
    applied twice).  The file is compacted into one group of the live
    sessions and retained batches when its lines plus the pending
    records exceed four times the live records. *)

open Seqdiv_stream

exception Corrupt of string
(** An unusable journal: bad magic, or a context line that does not
    match this run (model digest, shards, threshold...).  Torn tails
    and trailing garbage do {e not} raise — they are recovered around
    and reported in {!dropped_lines}. *)

type session_state = {
  js_session : int;
  js_consumed : int;  (** symbols consumed ({!Online.snapshot}) *)
  js_state : int;  (** flat-automaton state *)
  js_open : Frame.incident option;  (** incident open at the snapshot *)
  js_adaptive : string option;
      (** opaque {!Adaptive_threshold.to_string} token (threshold,
          counters, quantile sketch) when the session's monitor is
          adaptive; must contain no spaces.  Static sessions write the
          historical 5-field line, adaptive sessions append this as a
          6th field — both parse. *)
}

type batch_record = {
  jb_id : int;
  jb_shard : int;
  jb_events : int;  (** events of the batch this shard applied *)
  jb_incidents : Frame.incident_event list;  (** in emission order *)
}

type t

val start :
  ?resume:bool -> ?batch_history:int -> context:string -> string -> t
(** Open (and, with [resume], load) the journal at the given path.
    [context] is one line pinning everything the journal's validity
    depends on; resuming against a different context raises {!Corrupt}.
    [batch_history] (default 64) bounds the retained batch records —
    the re-acknowledgement window for resent batches.
    @raise Corrupt as described above.
    @raise Invalid_argument if [context] contains a newline. *)

(** {1 Recording}

    Records buffer in memory until {!commit}; the serve layer records
    every session a batch touched, then the batch itself, then commits
    once — one fsync per applied batch. *)

val record_session : t -> session_state -> unit
(** The session's new state (replaces any previous record). *)

val record_end : t -> session:int -> unit
(** The session ended and its monitor was dropped. *)

val record_batch : t -> batch_record -> unit
(** An applied batch with its emitted incidents. *)

val commit : t -> unit
(** Durably append the buffered records as one atomic commit group
    (fsynced).  A no-op when nothing is buffered. *)

(** {1 Recovered state} *)

val sessions : t -> session_state list
(** Live sessions (newest committed record per id, ended sessions
    removed), ascending session id. *)

val batches : t -> batch_record list
(** Retained batch records, oldest first (at most [batch_history]). *)

(** {1 Introspection} *)

val recovered_sessions : t -> int
(** Live sessions loaded by [resume]. *)

val dropped_lines : t -> int
(** Lines discarded during recovery: a torn tail, trailing garbage, or
    an uncommitted final group. *)

val appends : t -> int
val compactions : t -> int
