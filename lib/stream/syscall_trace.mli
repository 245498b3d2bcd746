(** Adapter for UNM-style system-call traces.

    The public "sense of self" datasets (University of New Mexico) store
    process traces as whitespace-separated [pid syscall-number] pairs,
    one event per line, with the events of different processes
    interleaved.  This module parses that format into a {!Sessions.t}
    (one session per process, events in arrival order) and renders it
    back.

    System-call numbers are sparse and platform-specific, so they are
    compacted into a dense alphabet: symbol [i] stands for the [i]-th
    distinct call number encountered.  The mapping back to original
    numbers is returned alongside. *)

type mapping = int array
(** [mapping.(symbol)] is the original system-call number. *)

val max_distinct_calls : int
(** 1024: the most distinct call numbers {!parse} accepts.  A current
    Linux system-call table (about 460 calls on x86-64) fits with room
    to spare.  The bound stays because a trace is outside input and the
    alphabet it yields sizes every table trained on it: each
    {!Seq_trie} node holds an alphabet-wide child array. *)

val parse : string -> Sessions.t * mapping
(** Parse the pid/syscall text format.
    @raise Parse_error.Error on a malformed line, a negative number, or
    more than {!max_distinct_calls} distinct call numbers. *)

val parse_file : string -> Sessions.t * mapping
(** {!parse} on a file's contents. *)

val render : Sessions.t -> mapping -> string
(** Inverse of {!parse}: one [pid syscall-number] pair per line, pids
    numbered from 1 in session order.  [parse (render s m)] yields
    sessions with the same call-number sequences as [s]. *)

val syscall_name : mapping -> int -> int
(** The original call number of a symbol.  Requires a valid symbol. *)
