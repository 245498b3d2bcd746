(** The line-oriented write-ahead log under {!Journal} and
    {!Shard_journal}.  The log frames, stores and recovers lines; what
    a line means, and when the file should be compacted, is the
    journal's business.

    {b File layout} (full spec in [docs/ROBUSTNESS.md]):
    {v
<magic>
context <free text naming the run configuration>
<body> <digest>
...
    v}
    [digest] is the FNV-1a-64 of [body] ({!Seqdiv_util.Hash.fnv}) as
    16 hex digits; a line whose digest does not match is damaged.

    {b Writes.}  Every write reaches disk through [fsync].  An
    {e append} adds only the new lines — O(new lines) bytes however
    long the file is.  A {e rewrite} writes the whole file to
    [path ^ ".tmp"] and renames it over [path], so a crash at any
    instant leaves the old file or the new one whole.  {!write} appends
    when it can and rewrites when it must: before anything is on disk,
    after a recovery that dropped lines or found no final newline
    (appending would splice into a partial line), after a legacy
    header, or when the journal asks for compaction.

    {b Recovery} keeps the longest valid prefix and counts the rest as
    {!dropped} instead of refusing the file; only a bad header or
    context line is fatal. *)

type t

val create : magic:string -> context:string -> string -> t
(** [create ~magic ~context path] is an empty log for [path] with header
    [magic]: nothing touches the disk until the first {!write}, which
    replaces whatever [path] holds.
    @raise Invalid_argument if [context] contains a newline. *)

val recover :
  ?legacy:string ->
  corrupt:(string -> exn) ->
  run:string ->
  t ->
  (string -> bool) ->
  unit
(** [recover ~corrupt ~run t accept] loads the file at [path t], if
    there is one.  Each line after the context line whose digest holds
    is passed to [accept] as its body, in file order; the first damaged
    line, or the first body [accept] refuses, ends the recovery, and it
    and every line after it count as {!dropped}.  A file under the
    [legacy] header is read the same way but rewritten under [magic] by
    the next {!write}.
    @raise corrupt with a message naming the path if the file is empty,
    has another header, has no [context ] line, or was written for
    another context — [run] names what a context pins ("run", "serve
    run"). *)

val drop : t -> int -> unit
(** [drop t n] moves the last [n] accepted lines to {!dropped}: a
    journal that groups lines calls it for the unfinished group a file
    ends in.  The next {!write} then rewrites. *)

val lines : t -> int
(** Body lines in the file: recovered, appended or rewritten. *)

val write : t -> compact:bool -> string list -> (unit -> string list) -> unit
(** [write t ~compact bodies live] makes [bodies] durable: appended when
    the file allows it and [compact] is false, otherwise by rewriting
    the file from the bodies [live ()] returns. *)

val dropped : t -> int
(** Lines discarded by {!recover} and {!drop} (0 for a clean file). *)

val appends : t -> int
(** Writes that appended. *)

val compactions : t -> int
(** Writes that rewrote the whole file. *)
