(** Persisting the evaluation corpus to disk.

    The paper's dataset (training stream plus the 112 injected test
    streams with ground truth) was itself a published artifact
    (Maxion & Tan 2000).  This module writes a {!Suite.t} to a
    directory — a [manifest.txt] with the parameters and per-stream
    ground truth, the training trace, and one trace file per test
    stream — and reads it back, so a corpus can be generated once and
    evaluated elsewhere (or by other tools).

    Loading re-derives the n-gram index (the training trace's
    {!Seqdiv_stream.Seq_trie}) from the stored training trace, so a
    loaded suite is observationally identical to the generated one. *)

val save : Suite.t -> dir:string -> unit
(** Write the corpus.  Creates [dir] if missing.
    @raise Sys_error on I/O failure. *)

val load : dir:string -> Suite.t
(** Read a corpus written by {!save}.
    @raise Seqdiv_stream.Parse_error.Error on a missing or malformed
    manifest, or when a stream file disagrees with its recorded ground
    truth. *)

val manifest_file : string
(** ["manifest.txt"], exposed for tooling. *)
