(** Dense row-major float matrices.

    Exactly the kernels the feed-forward neural-network detector needs
    to train and score without allocating: creation, the output layer's
    product and its fused back-propagation, the first layer's one-hot
    row kernels, and in-place updates.  The kernels raise
    [Invalid_argument] when a length, a range or a row does not fit the
    matrix; {!create} and {!random} assert positive dimensions.  Every
    kernel states the dense operation it replays.  Where it drops terms,
    they are products by [0.0] or updates by [±0.0], and for finite
    entries its result is the dense one bit for bit, except that an
    update it skips leaves a [−0.0] entry at [−0.0].

    {1 One-hot row kernels}

    The detector's input is a context of symbols, each one-hot encoded
    in its own block of inputs: a vector [x] that holds [1.0] at a few
    inputs and [0.0] everywhere else.  Its first layer is stored
    input-major — one row per input, one column per hidden unit — so the
    inputs set in [x] select whole rows, each a contiguous run of
    floats.  The one-hot kernels take those rows as
    [hot.(pos) … hot.(pos + len − 1)], strictly ascending, and touch
    only them.  The dense kernels' float operations on [x] are kept in
    their order; only the products by [0.0] are dropped, which leaves
    every finite result unchanged: adding [±0] to a non-zero sum gives
    the sum, and the dense sum, which starts at [+0], is never [−0]. *)

type t
(** A dense [rows × cols] matrix of floats. *)

val create : rows:int -> cols:int -> t
(** Zero-filled matrix.  Requires positive dimensions. *)

val random : Prng.t -> rows:int -> cols:int -> scale:float -> t
(** Entries drawn uniformly from [\[-scale, scale\]], row by row — the
    usual small symmetric initialisation for neural-network weights. *)

val transpose : t -> t
(** A fresh [cols × rows] matrix whose entry [(j, i)] is entry [(i, j)]
    of the argument. *)

val rows : t -> int

val mul_vec_into : t -> float array -> float array -> unit
(** [mul_vec_into m v dst] writes the matrix–vector product [m · v]
    into [dst] without allocating, each row summed in ascending column
    order from [0.0].  Requires [v] as long as a row and
    [Array.length dst = rows m]. *)

val add_outer_tmul_into :
  t -> float array -> float array -> grad:t -> back:float array -> unit
(** [add_outer_tmul_into m u v ~grad ~back] is a layer's
    back-propagation in one pass over the rows of [m]: the rank-1
    update [grad ← grad + u vᵀ] and the product [back ← mᵀ · u].  Rows
    where [u.(r) = 0.0] are skipped by both.  Each entry of [grad]
    receives [u.(r) · v.(i)] once; each [back.(i)] is summed from [0.0]
    in ascending row order.  Requires
    [Array.length u = rows m], [v] and [back] as long as a row, and
    [grad] of [m]'s dimensions.  This is the weight gradient and the
    back-propagated error of an output layer [m]. *)

val sum_rows_into :
  t -> int array -> pos:int -> len:int -> float array -> from:int -> unit
(** [sum_rows_into m hot ~pos ~len sums ~from] writes the partial sums
    of the rows [hot.(pos) … hot.(pos + len − 1)] of [m] into [sums]:
    its row [j] (the [c] floats from [j·c], [c] a row's length) becomes
    [0.0] plus rows [hot.(pos)] to [hot.(pos + j)] of [m], added in
    that order.  Row [len − 1] is then [mᵀ · x] for the [x] with [1.0]
    at those rows, bit for bit.  Rows [0 … from − 1] of [sums] are
    taken as already holding their partial sums — the rows a previous
    call wrote for a context with the same first [from] hot rows — and
    only rows [from … len − 1] are written.  Requires
    [0 <= from <= len], [sums] at least [len] rows long, and every hot
    row inside [m]. *)

val add_to_rows : t -> float array -> int array -> pos:int -> len:int -> unit
(** [add_to_rows m u hot ~pos ~len] adds [u.(i)] to column [i] of each
    of the rows [hot.(pos) … hot.(pos + len − 1)], skipping the columns
    where [u.(i) = 0.0]: the rank-1 update [m ← m + x uᵀ] for the same
    [x] as {!sum_rows_into}.  For finite [u] every entry ends with the
    value the dense update gives it, bit for bit, except that an entry
    at [−0.0] the dense update would turn into [+0.0] stays [−0.0].
    Requires [u] as long as a row and every hot row inside [m]. *)

val scale_in_place : t -> float -> unit
(** Multiply every entry by a constant, in place. *)

val momentum_step :
  t -> velocity:t -> grad:t -> momentum:float -> rate:float -> unit
(** [momentum_step w ~velocity ~grad ~momentum ~rate] is one step of
    gradient descent with momentum, entry by entry and in place:
    [velocity ← momentum · velocity − rate · grad], then
    [w ← w + velocity].  Requires equal dimensions. *)
