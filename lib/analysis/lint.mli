(** Filesystem front end for the rule engine: load a source tree,
    run every rule, render the findings.

    [seqdiv-lint] (bin/lint) is a thin wrapper over this module, and
    [dune build @lint] runs it over [lib/] and [bin/]. *)

val load_file : string -> Source.t
(** Read one file from disk.  The path is kept verbatim — the linter
    derives the file's role from its first segment, so pass paths
    relative to the repository root (e.g. [lib/stream/trace.ml]). *)

val load_tree : string list -> Source.t list
(** All [.ml]/[.mli] files under the given roots, sorted by path.
    Traversal order is deterministic (children visited in sorted
    order); [_build], [.git] and other dot-directories are skipped. *)

val run : string list -> Diagnostic.t list
(** [run roots] = [Rules.run (load_tree roots)]. *)

type format = Text | Json | Sarif

val format_of_string : string -> format option
(** ["text"] / ["json"] / ["sarif"]. *)

val render : format -> files:int -> Diagnostic.t list -> string
(** Render the findings in the requested format.  [Text] is the
    classic per-line report with a trailing summary ([files] is only
    used there); [Json] and [Sarif] delegate to {!Sarif}.  All three
    are byte-deterministic for equal inputs. *)

val report : Format.formatter -> files:int -> Diagnostic.t list -> unit
(** Render one line per diagnostic followed by a summary line
    ([render Text], printed). *)

val load_baseline : string -> Baseline.t option
(** Read a baseline file; [None] when the path does not exist. *)

val has_errors : Diagnostic.t list -> bool
(** True when any finding has [Error] severity — the CI gate. *)
