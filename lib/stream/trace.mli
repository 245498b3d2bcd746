(** Event traces: immutable sequences of alphabet symbols.

    A trace is the unit of data every other component consumes: training
    streams, background streams and injected test streams are all traces
    over a shared {!Alphabet.t}. *)

type t

val of_array : Alphabet.t -> int array -> t
(** Copies the array.  Every element must be a valid symbol of the
    alphabet.  @raise Invalid_argument otherwise. *)

val of_list : Alphabet.t -> int list -> t
(** List version of {!of_array}. *)

val alphabet : t -> Alphabet.t
val length : t -> int

val get : t -> int -> int
(** Symbol at a position.  Requires [0 <= i < length]. *)

val sub : t -> pos:int -> len:int -> t
(** Contiguous sub-trace.  Requires the range to be in bounds. *)

val to_array : t -> int array
(** Fresh copy of the underlying symbols. *)

val raw : t -> int array
(** The underlying symbol array itself — the zero-copy window accessor
    of the scoring hot paths: windows are read as slices of it, never
    copied out.  The array is {e borrowed}: the
    caller must never mutate it (traces are immutable; writing through
    this view would corrupt every structure sharing the trace). *)

val concat : t -> t -> t
(** Concatenation.  Requires physically-equal or equally-sized
    alphabets; the left alphabet is kept. *)

val insert : t -> pos:int -> t -> t
(** [insert base ~pos piece] splices [piece] in front of position [pos]
    of [base] (so [pos = length base] appends).  Same alphabet rules as
    {!concat}. *)

val equal : t -> t -> bool
(** Same length and same symbols (alphabets are not compared beyond
    size). *)

val iter_windows : t -> width:int -> (int -> unit) -> unit
(** [iter_windows t ~width f] calls [f start] for every window start
    [0 .. length t - width].  Does nothing when the trace is shorter than
    [width].  Requires [width > 0]. *)

val window_count : t -> width:int -> int
(** Number of [width]-windows: [max 0 (length - width + 1)]. *)

val pp : Format.formatter -> t -> unit
(** Prints symbol names separated by spaces; long traces are elided. *)
