(** Plain-text tables with aligned columns, used by the CLI to print
    the paper-shaped result rows. *)

type t

val make : columns:string list -> t
(** A table with the given column headers.  Requires at least one
    column. *)

val add_row : t -> string list -> unit
(** Append a row.  @raise Invalid_argument when the cell count does not
    match the column count. *)

val to_string : t -> string
(** Render with a header rule and space-padded columns. *)

val print : t -> unit
(** [print t] writes [to_string t] to standard output. *)
