(** Wire framing for the serve layer.

    A pure codec — no sockets, no side effects — for the one format a
    [seqdiv serve] connection speaks: each frame is a magic byte
    ({!binary_magic}), a little-endian [u32] payload length, and the
    payload.  Integers travel as little-endian 64-bit words, scores and
    thresholds as their IEEE-754 bits, and symbols as raw bytes (one
    per symbol, codes 0..254).  Requests flow client-to-server,
    responses server-to-client; both directions use the same framing.

    Malformed input raises {!Parse_error.Error} naming the offending
    datum, never an anonymous [Failure]; a reader refuses a frame
    whose first byte is not the magic as soon as that byte arrives. *)

(** {1 Protocol types} *)

type event =
  | Data of { session : int; symbols : int array }
      (** symbols (codes 0..254) appended to one session's stream *)
  | End_of_session of { session : int }
      (** the session's stream is complete: flush and drop its monitor *)

type incident = {
  first_start : int;
  last_start : int;
  cover_from : int;
  cover_to : int;
  alarms : int;
  peak_score : float;
}
(** One closed incident on the wire.  [Seqdiv_core.Incident.t] is this
    record (a type equation), so monitors' incidents travel without a
    copy. *)

type incident_event =
  | Opened of { session : int; position : int }
  | Closed of { session : int; incident : incident }

type shard_stats = {
  shard : int;
  sessions_resident : int;
  events : int;  (** events applied since start *)
  symbols : int;  (** symbols applied since start *)
  batches : int;  (** sub-batches applied since start *)
  rejected : int;  (** sub-batches refused by backpressure *)
  queue_depth : int;  (** sub-batches waiting at sampling time *)
  bytes_resident : int;  (** estimated session-table heap bytes *)
  busy_ns : int;  (** cumulative sub-batch service time *)
  p50_batch_ns : int;  (** median recent sub-batch service time *)
  p99_batch_ns : int;  (** 99th-percentile recent service time *)
  restarts : int;  (** supervisor restarts of this shard's domain *)
  alive : bool;  (** the shard domain is running (or restartable) *)
  degraded : bool;  (** the shard took a fatal fault and serves [Failed] *)
  retry_after_ms : int;  (** current adaptive backpressure hint *)
  windows : int;  (** completed windows judged (departed + resident) *)
  alarms : int;
      (** windows that alarmed — the observed alarm rate is
          [alarms /. windows] *)
  threshold : float;
      (** published alarm threshold: the configured constant, or the max
          over resident adaptive controllers (wire-encoded as exact
          bits, so stats roundtrip losslessly) *)
}

type health = {
  shards : shard_stats list;  (** one row per shard, as in {!Stats} *)
  connections : int;  (** live client connections *)
  evictions : int;  (** slow clients evicted since start *)
  draining : bool;  (** a drain handshake is in progress *)
}

type request =
  | Batch of { id : int; events : event list }
      (** [id] correlates the acks; a batch must carry at least one
          event (enforced by the codec in both directions) *)
  | Stats_request
  | Health_request  (** readiness probe: answered with {!Health} *)
  | Drain_request
      (** orderly stop-intake handshake: the server rejects new batches,
          finishes queued work, then answers [Drained] *)
  | Quit  (** orderly shutdown of the whole server *)

type response =
  | Ack of {
      id : int;
      shard : int;
      events : int;  (** events of the batch this shard applied *)
      incidents : incident_event list;
    }
      (** One [Ack] arrives {e per shard} the batch touched, after that
          shard has applied (and, when journalling, fsynced) its slice.
          A client knows the batch is done when the acked event counts
          sum to the batch size. *)
  | Rejected of { id : int; retry_after_ms : int }
      (** Backpressure: some touched shard's queue was full.  No part
          of the batch was enqueued; resend the whole batch after the
          hinted delay. *)
  | Failed of { id : int; shard : int; events : int; reason : string }
      (** The shard failed applying this batch's slice of [events]
          events (e.g. its per-batch deadline fired, or the shard is
          degraded); session state may have partially advanced.  Like
          [Ack], one [Failed] covers only the named shard's slice —
          other shards' acks for the same batch remain valid. *)
  | Stats of shard_stats list
  | Health of health  (** answer to {!Health_request} *)
  | Drained of { batches : int }
      (** answer to {!Drain_request} once all queues are empty;
          [batches] counts sub-batches applied since start *)
  | Error_msg of string  (** protocol-level failure; connection closes *)

(** {1 Session sharding} *)

val shard_of_session : shards:int -> int -> int
(** The shard owning a session id: a mixed 64-bit hash reduced mod
    [shards].  Deterministic across runs and processes — the routing
    half of the determinism contract.
    @raise Invalid_argument if [shards <= 0]. *)

(** {1 Encoding} *)

type encoding = Binary
(** The one wire encoding.  The type and the [encoding] argument of the
    writers are kept so that existing callers (the perfbench harness)
    compile unchanged. *)

val binary_magic : char
(** First byte of every frame. *)

val write_request : Buffer.t -> encoding -> request -> unit
val write_response : Buffer.t -> encoding -> response -> unit
(** Append one complete frame.  A refused write appends nothing.
    @raise Invalid_argument on values the format cannot carry (symbol
    codes outside 0..254, an empty batch, negative ids, a payload over
    64 MiB). *)

(** {1 Incremental decoding} *)

type reader
(** Per-connection decode state: buffers raw bytes and yields complete
    frames. *)

val reader : unit -> reader

val feed_bytes : reader -> bytes -> pos:int -> len:int -> unit
(** Append a chunk read from the connection. *)

val next_request : reader -> request option
val next_response : reader -> response option
(** Decode the next complete frame, or [None] when more bytes are
    needed.  A reader is used for one direction only.
    @raise Parse_error.Error on malformed input (bad magic, checked on
    a frame's first byte alone; oversized frame; unknown tag; symbol
    out of range; empty batch; a count larger than the payload can
    hold; truncated or trailing payload bytes). *)

(** {1 Incident-log rendering} *)

val render_incident_event : incident_event -> string
(** One deterministic line per event ([peak_score] rendered as exact
    bits), so incident logs can be compared byte-for-byte across runs,
    shard counts, and kill/resume cycles. *)

val render_health : health -> string
(** Multi-line human-readable readiness report (one header line plus
    one line per shard), for CLI health probes. *)
