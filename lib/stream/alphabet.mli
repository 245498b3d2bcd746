(** Finite alphabets of categorical events.

    A symbol is an integer in [0 .. size-1].  Symbols may carry display
    names (e.g. system-call names) used only for printing; all detector
    and generator logic works on the integer codes. *)

type t

val make : int -> t
(** [make n] is an alphabet of [n] symbols named ["s0" .. "s(n-1)"].
    Requires [n >= 1].  Alphabets beyond 256 symbols are fully served by
    the trie-backed data layer; only the text model formats
    ({!Seqdiv_detectors.Model_io}) are limited to symbols 0..255. *)

val of_names : string array -> t
(** Alphabet whose symbol [i] displays as the [i]-th name.  Names must be
    distinct and non-empty. *)

val size : t -> int
(** Number of symbols. *)

val name : t -> int -> string
(** Display name of a symbol.  Requires a valid symbol. *)

val index : t -> string -> int
(** Inverse of {!name}.  @raise Not_found if no symbol has that name. *)

val mem : t -> int -> bool
(** Whether an integer is a valid symbol of this alphabet. *)

val symbols : t -> int array
(** All symbols, ascending: [\[|0; 1; ...; size-1|\]]. *)

val pp : Format.formatter -> t -> unit
(** Prints like [{size=8}]. *)
