(** Crash-safe run journal — the persistence behind [--journal] /
    [--resume].

    A journal is a record of {e completed} performance-map cells.  An
    interrupted grid run resumed against its journal re-executes only
    the missing cells; because every cell outcome is a pure function of
    its inputs and the float payload round-trips bit-exactly
    ([Int64.bits_of_float]), the resumed maps are byte-identical to a
    fresh run at any jobs count.

    The cells live in a {!Wal}, which owns the header and context
    lines, the per-line digests, the fsync'd append and atomic rewrite,
    and torn-tail recovery.  This module is the record codec (full spec
    in [docs/ROBUSTNESS.md]):
    {v
seqdiv-journal v2
context <free text identifying the run configuration>
cell <seed> <detector> <window> <anomaly-size> <tag> <response-bits> <digest>
...
    v}
    One cell per line; [tag] is [blind]/[weak]/[capable] and
    [response-bits] the IEEE-754 bits of the max response in hex.
    Version 1 files are line-identical and are accepted on load (the
    header upgrades on the first rewrite).  {!Outcome.Failed} cells are
    {e never} journalled — a resume retries them.

    A flush appends the cells recorded since the last one, unless the
    file's cell lines would exceed [compact_factor] times the live
    entry count: then it is rewritten with live entries only (newest
    record per key), so the file stays bounded by the live cell count
    whatever the shadowing history.  A journal whose header or
    [context] line disagrees with the resuming run raises {!Corrupt} —
    resuming against the wrong configuration would silently splice
    incompatible cells. *)

val version : int

exception Corrupt of string
(** The file is not a journal this version can trust: bad magic/version
    header, missing context line, or a context that names a different
    run configuration.  (Torn tails do {e not} raise — see
    {!dropped_lines}.) *)

type entry = {
  seed : int;  (** suite seed the cell was computed under *)
  detector : string;  (** detector name (no whitespace) *)
  window : int;
  anomaly_size : int;
  outcome : Outcome.t;  (** never {!Outcome.Failed} *)
}

type t

val start :
  ?resume:bool -> ?compact_factor:float -> context:string -> string -> t
(** [start ~context path] opens a journal at [path].  [context] is a
    single-line description of the run configuration (seed, stream
    lengths, …); it is written into the file and checked on resume.
    With [resume] false (default) the journal starts empty and the
    first {!flush} replaces whatever was at [path].  With [resume]
    true, an existing file is loaded — recovered entries answer
    {!lookup} — and a missing file simply starts empty.

    [compact_factor] (default 4.0) tunes when {!flush} compacts: the
    file is rewritten whenever its cell lines would exceed
    [compact_factor] times the live entry count.  A factor [<= 0]
    disables the append path entirely — every flush rewrites the whole
    file (the pre-compaction behaviour, kept for comparison tests).
    @raise Corrupt if resuming from an unrecognisable or mismatched
    file.
    @raise Invalid_argument if [context] spans lines. *)

val lookup :
  t -> seed:int -> detector:string -> window:int -> anomaly_size:int ->
  Outcome.t option
(** The journalled outcome of a cell, if any (later records shadow
    earlier ones). *)

val record : t -> entry -> unit
(** Buffer one completed cell.  Nothing reaches disk until {!flush}.
    @raise Invalid_argument on a {!Outcome.Failed} outcome or a
    whitespace-bearing detector name. *)

val flush : t -> unit
(** Persist everything recorded since the last flush — appending when
    the file permits it, rewriting whole otherwise ({!Wal.write} and
    the compaction rule above).  No-op when nothing was recorded. *)

val entries : t -> entry list
(** Every entry the journal holds (recovered and newly recorded), in
    absorption order — including records later shadowed by a re-record
    of the same key. *)

val path : t -> string
val context : t -> string

val recovered : t -> int
(** Distinct cells loaded from disk by [start ~resume:true]. *)

val dropped_lines : t -> int
(** Torn-tail lines discarded during recovery (0 for a clean file). *)

val appends : t -> int
(** Flushes that took the append fast path since {!start}. *)

val compactions : t -> int
(** Flushes that rewrote the whole file since {!start} (the initial
    header-writing flush, torn-tail repairs, version upgrades and
    threshold compactions all count). *)
