(** Text serialisation of trained models.

    Deploying a detector means training once and scoring many times,
    often on another machine; these functions persist the two deployment
    detectors of the paper's combination scheme — Stide's sequence
    database and the Markov detector's conditional-count table — in a
    portable, versioned, line-oriented text format.

    (The neural network and HMM are cheap to retrain deterministically
    from the training trace and seed, which is itself persisted by
    {!Seqdiv_synth.Dataset_io}; serialising float weight matrices
    portably buys little, so they are deliberately not covered.)

    Alongside the text formats, a {e binary flat format} persists a
    compiled flat-automaton scorer for zero-copy deployment loads —
    see {!save_flat_file}. *)

open Seqdiv_stream

val save_stide : Stide.model -> string
(** Serialise a Stide model (window size plus every distinct sequence
    with its count).  The text formats carry symbols 0..255.
    @raise Invalid_argument on a larger symbol. *)

val load_stide : string -> Stide.model
(** Inverse of {!save_stide}.
    @raise Seqdiv_stream.Parse_error.Error on malformed input, including
    a header [window] larger than the input's length in bytes, which is
    refused before anything is allocated (every stored window spells out
    its symbols on a line). *)

val save_markov : Markov.model -> string
(** Serialise a Markov model (window, alphabet size, and the
    context-continuation count table).
    @raise Invalid_argument on a context symbol above 255. *)

val load_markov : string -> Markov.model
(** Inverse of {!save_markov}.
    @raise Seqdiv_stream.Parse_error.Error on malformed input, including
    a header [window] or [alphabet] larger than the input's length in
    bytes, which is refused before anything is allocated (every context
    and counts row is spelled out on a line). *)

val save_stide_file : string -> Stide.model -> unit

val load_stide_file : string -> Stide.model
(** @raise Seqdiv_stream.Parse_error.Error on malformed input or an
    unreadable file (the message carries the path). *)

val save_markov_file : string -> Markov.model -> unit

val load_markov_file : string -> Markov.model
(** @raise Seqdiv_stream.Parse_error.Error on malformed input or an
    unreadable file (the message carries the path). *)

(** {1 Binary flat-automaton format}

    A compiled scorer ({!Seqdiv_stream.Flat_automaton}) serialised as a
    versioned header plus straight 8-byte-aligned dumps of its tables.
    Loading [mmap]s each table directly out of the file — no parsing,
    no copying, no per-entry allocation — so a fleet of monitor
    processes cold-starts in microseconds and shares the page cache.
    The format is native-endian and 64-bit (a sanity tag in the header
    rejects foreign files); portable interchange stays with the text
    formats above. *)

type flat = {
  flat_detector : string;  (** detector name, e.g. ["stide"] *)
  flat_window : int;  (** window size (= automaton depth) *)
  flat_alarm_threshold : float;
      (** the detector's alarm threshold ({!Seqdiv_core.Trained} keeps
          it out of reach of a loader, so it travels in the file) *)
  flat_scorer : Flat_automaton.scorer;
}

val save_flat_file :
  string ->
  detector:string ->
  alarm_threshold:float ->
  Flat_automaton.scorer ->
  unit
(** Write a compiled scorer.  [detector] must be 1..8 bytes. *)

val load_flat_file : string -> flat
(** Map a saved scorer back, zero-copy, validating the tables once so
    the stepper's unchecked reads stay safe on untrusted files.
    @raise Seqdiv_stream.Parse_error.Error on malformed input or an
    unreadable file (the message carries the path). *)
