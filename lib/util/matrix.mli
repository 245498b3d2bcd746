(** Dense row-major float matrices.

    Exactly the kernels the feed-forward neural-network detector needs
    to train and score without allocating: creation, matrix–vector
    products into caller-owned buffers, in-place updates, and the
    one-hot kernels its first layer runs on.  The kernels raise
    [Invalid_argument] when a length, a range or a column does not fit
    the matrix; {!create} and {!random} assert positive dimensions.

    {1 One-hot kernels}

    The detector's input is a context of symbols, each one-hot encoded
    in its own block of columns: a vector [x] that holds [1.0] at a few
    columns and [0.0] everywhere else.  The one-hot kernels take those
    columns as [hot.(pos) … hot.(pos + len − 1)], strictly ascending and
    each a column of the matrix (an index past the last column would
    read the next row), and touch only them.  The dense kernels'
    float operations on [x] are kept in their order; only the products
    by [0.0] are dropped, which leaves every finite result unchanged:
    adding [±0] to a non-zero sum gives the sum, and the dense sum,
    which starts at [+0], is never [−0]. *)

type t
(** A dense [rows × cols] matrix of floats. *)

val create : rows:int -> cols:int -> t
(** Zero-filled matrix.  Requires positive dimensions. *)

val random : Prng.t -> rows:int -> cols:int -> scale:float -> t
(** Entries drawn uniformly from [\[-scale, scale\]], row by row — the
    usual small symmetric initialisation for neural-network weights. *)

val rows : t -> int

val mul_vec_into : t -> float array -> float array -> unit
(** [mul_vec_into m v dst] writes the matrix–vector product [m · v]
    into [dst] without allocating, each row summed in ascending column
    order from [0.0].  Requires [v] as long as a row and
    [Array.length dst = rows m]. *)

val tmul_vec_into : t -> float array -> float array -> unit
(** [tmul_vec_into m v dst] writes [mᵀ · v] into [dst] without
    allocating.  Requires [Array.length v = rows m] and [dst] as long as
    a row. *)

val add_outer : t -> float array -> float array -> scale:float -> unit
(** [add_outer m u v ~scale] performs the rank-1 update
    [m ← m + scale · u vᵀ] in place, skipping rows where
    [scale · u.(i) = 0.0].  Requires [Array.length u = rows m] and [v]
    as long as a row.  This is the weight-gradient step of
    back-propagation. *)

val mul_one_hot_into : t -> int array -> pos:int -> len:int -> float array -> unit
(** [mul_one_hot_into m hot ~pos ~len dst] writes [m · x] into [dst],
    where [x] is the vector with [1.0] at the [len] columns starting at
    [hot.(pos)]: each row's entries at those columns, summed in
    ascending column order from [0.0].  For finite [m] the result is
    {!mul_vec_into} on [x], bit for bit.  Requires
    [Array.length dst = rows m]. *)

val add_outer_one_hot :
  t -> float array -> int array -> pos:int -> len:int -> unit
(** [add_outer_one_hot m u hot ~pos ~len] adds [u.(i)] to row [i] at
    each of the [len] columns starting at [hot.(pos)], skipping rows
    where [u.(i) = 0.0]: the rank-1 update [m ← m + u xᵀ] for the same
    [x] as {!mul_one_hot_into}.  For finite [u] every entry ends with
    the value {!add_outer}[ m u x ~scale:1.0] gives it, bit for bit,
    except that an entry at [−0.0] the dense update would turn into
    [+0.0] stays [−0.0].  Requires [Array.length u = rows m]. *)

val scale_in_place : t -> float -> unit
(** Multiply every entry by a constant, in place. *)

val momentum_step :
  t -> velocity:t -> grad:t -> momentum:float -> rate:float -> unit
(** [momentum_step w ~velocity ~grad ~momentum ~rate] is one step of
    gradient descent with momentum, entry by entry and in place:
    [velocity ← momentum · velocity − rate · grad], then
    [w ← w + velocity].  Requires equal dimensions. *)
