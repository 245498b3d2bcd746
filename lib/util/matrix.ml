type t = { rows : int; cols : int; data : float array }

let create ~rows ~cols =
  assert (rows > 0 && cols > 0);
  { rows; cols; data = Array.make (rows * cols) 0.0 }

let random rng ~rows ~cols ~scale =
  assert (rows > 0 && cols > 0);
  let data =
    Array.init (rows * cols) (fun _ -> Prng.float rng (2.0 *. scale) -. scale)
  in
  { rows; cols; data }

let transpose m =
  {
    rows = m.cols;
    cols = m.rows;
    data =
      Array.init (m.rows * m.cols) (fun k ->
          m.data.((k mod m.rows * m.cols) + (k / m.rows)));
  }

let rows m = m.rows

(* The kernels below run once per window in scoring and once per
   context or (context -> next) pair in every training epoch.  Each
   checks its arguments once per call with [invalid_arg] (which, unlike
   [assert], no build flag removes); its inner loop then reads and
   writes unchecked, since every index it forms lies inside the arrays
   just checked.  Accumulators live in destination cells: the scoring
   paths call these per window, where a ref accumulator would allocate
   (lint R11).  The row-wide loops run four columns per iteration, then
   the remainder one by one; each column's float operations are the
   same either way. *)

let require ok msg =
  (* lint: allow partiality — documented precondition *)
  if not ok then invalid_arg msg

(* The products run column by column, so each row still adds its terms
   in ascending column order while successive additions go to
   different rows and do not wait on each other. *)
let mul_vec_into m v dst =
  require
    (Array.length v = m.cols && Array.length dst = m.rows)
    "Matrix.mul_vec_into: dimensions";
  Array.fill dst 0 m.rows 0.0;
  let n = m.cols and data = m.data in
  for b = 0 to (n / 4) - 1 do
    let j = 4 * b in
    let v0 = Array.unsafe_get v j
    and v1 = Array.unsafe_get v (j + 1)
    and v2 = Array.unsafe_get v (j + 2)
    and v3 = Array.unsafe_get v (j + 3) in
    for i = 0 to m.rows - 1 do
      let k = (i * n) + j in
      Array.unsafe_set dst i
        (Array.unsafe_get dst i
        +. (Array.unsafe_get data k *. v0)
        +. (Array.unsafe_get data (k + 1) *. v1)
        +. (Array.unsafe_get data (k + 2) *. v2)
        +. (Array.unsafe_get data (k + 3) *. v3))
    done
  done;
  for j = n land lnot 3 to n - 1 do
    let vj = Array.unsafe_get v j in
    for i = 0 to m.rows - 1 do
      Array.unsafe_set dst i
        (Array.unsafe_get dst i +. (Array.unsafe_get data ((i * n) + j) *. vj))
    done
  done

(* Row [r] of [add_outer_tmul_into], for [d = u.(r)]:
   [grad.(base + i) += d · v.(i)] and [back.(i) += data.(base + i) · d].
   [d] is read here, not passed: a float argument would be boxed. *)
let outer_tmul_row data grad u r v back n =
  let d = Array.unsafe_get u r and base = r * n in
  for q = 0 to (n / 4) - 1 do
    let i = 4 * q in
    let k = base + i in
    Array.unsafe_set grad k
      (Array.unsafe_get grad k +. (d *. Array.unsafe_get v i));
    Array.unsafe_set back i
      (Array.unsafe_get back i +. (Array.unsafe_get data k *. d));
    Array.unsafe_set grad (k + 1)
      (Array.unsafe_get grad (k + 1) +. (d *. Array.unsafe_get v (i + 1)));
    Array.unsafe_set back (i + 1)
      (Array.unsafe_get back (i + 1) +. (Array.unsafe_get data (k + 1) *. d));
    Array.unsafe_set grad (k + 2)
      (Array.unsafe_get grad (k + 2) +. (d *. Array.unsafe_get v (i + 2)));
    Array.unsafe_set back (i + 2)
      (Array.unsafe_get back (i + 2) +. (Array.unsafe_get data (k + 2) *. d));
    Array.unsafe_set grad (k + 3)
      (Array.unsafe_get grad (k + 3) +. (d *. Array.unsafe_get v (i + 3)));
    Array.unsafe_set back (i + 3)
      (Array.unsafe_get back (i + 3) +. (Array.unsafe_get data (k + 3) *. d))
  done;
  for i = n land lnot 3 to n - 1 do
    let k = base + i in
    Array.unsafe_set grad k
      (Array.unsafe_get grad k +. (d *. Array.unsafe_get v i));
    Array.unsafe_set back i
      (Array.unsafe_get back i +. (Array.unsafe_get data k *. d))
  done

let add_outer_tmul_into m u v ~grad ~back =
  require
    (Array.length u = m.rows
    && Array.length v = m.cols
    && Array.length back = m.cols
    && grad.rows = m.rows && grad.cols = m.cols)
    "Matrix.add_outer_tmul_into: dimensions";
  Array.fill back 0 m.cols 0.0;
  for r = 0 to m.rows - 1 do
    if u.(r) <> 0.0 then outer_tmul_row m.data grad.data u r v back m.cols
  done

(* [dst.(d + i) <- a.(x + i) +. b.(y + i)] for [i] in [\[0, n)]. *)
let add_into a x b y dst d n =
  for q = 0 to (n / 4) - 1 do
    let i = 4 * q in
    Array.unsafe_set dst (d + i)
      (Array.unsafe_get a (x + i) +. Array.unsafe_get b (y + i));
    Array.unsafe_set dst (d + i + 1)
      (Array.unsafe_get a (x + i + 1) +. Array.unsafe_get b (y + i + 1));
    Array.unsafe_set dst (d + i + 2)
      (Array.unsafe_get a (x + i + 2) +. Array.unsafe_get b (y + i + 2));
    Array.unsafe_set dst (d + i + 3)
      (Array.unsafe_get a (x + i + 3) +. Array.unsafe_get b (y + i + 3))
  done;
  for i = n land lnot 3 to n - 1 do
    Array.unsafe_set dst (d + i)
      (Array.unsafe_get a (x + i) +. Array.unsafe_get b (y + i))
  done

(* [dst.(d + i) <- 0.0 +. a.(x + i)] for [i] in [\[0, n)]: the first
   term of a sum that starts at [0.0]. *)
let zero_plus_into a x dst d n =
  for q = 0 to (n / 4) - 1 do
    let i = 4 * q in
    Array.unsafe_set dst (d + i) (0.0 +. Array.unsafe_get a (x + i));
    Array.unsafe_set dst (d + i + 1) (0.0 +. Array.unsafe_get a (x + i + 1));
    Array.unsafe_set dst (d + i + 2) (0.0 +. Array.unsafe_get a (x + i + 2));
    Array.unsafe_set dst (d + i + 3) (0.0 +. Array.unsafe_get a (x + i + 3))
  done;
  for i = n land lnot 3 to n - 1 do
    Array.unsafe_set dst (d + i) (0.0 +. Array.unsafe_get a (x + i))
  done

(* The one-hot kernels check every hot row: an index past the last row
   would read past the matrix. *)
let require_hot_rows m hot ~pos ~len =
  require
    (pos >= 0 && len >= 0 && pos + len <= Array.length hot)
    "Matrix: one-hot range";
  for c = pos to pos + len - 1 do
    require (hot.(c) >= 0 && hot.(c) < m.rows) "Matrix: one-hot row"
  done

let sum_rows_into m hot ~pos ~len sums ~from =
  require_hot_rows m hot ~pos ~len;
  require
    (from >= 0 && from <= len && Array.length sums >= len * m.cols)
    "Matrix.sum_rows_into: dimensions";
  let n = m.cols in
  if from = 0 && len > 0 then
    zero_plus_into m.data (Array.unsafe_get hot pos * n) sums 0 n;
  for j = Stdlib.max from 1 to len - 1 do
    add_into sums ((j - 1) * n) m.data
      (Array.unsafe_get hot (pos + j) * n)
      sums (j * n) n
  done

(* [data.(base + i) += u.(i)] for [i] in [\[0, n)] where [u.(i) <> 0.0]. *)
let add_nonzero_into data ~base u n =
  for i = 0 to n - 1 do
    let ui = Array.unsafe_get u i in
    if ui <> 0.0 then
      Array.unsafe_set data (base + i) (Array.unsafe_get data (base + i) +. ui)
  done

let rec has_zero u i n = i < n && (u.(i) = 0.0 || has_zero u (i + 1) n)

let add_to_rows m u hot ~pos ~len =
  require_hot_rows m hot ~pos ~len;
  require (Array.length u = m.cols) "Matrix.add_to_rows: dimensions";
  (* With no zero in [u] there is nothing to skip. *)
  if has_zero u 0 m.cols then
    for c = pos to pos + len - 1 do
      add_nonzero_into m.data ~base:(Array.unsafe_get hot c * m.cols) u m.cols
    done
  else
    for c = pos to pos + len - 1 do
      let base = Array.unsafe_get hot c * m.cols in
      add_into m.data base u 0 m.data base m.cols
    done

let scale_in_place m c =
  let data = m.data in
  for k = 0 to Array.length data - 1 do
    Array.unsafe_set data k (Array.unsafe_get data k *. c)
  done

let momentum_step w ~velocity:v ~grad:g ~momentum ~rate =
  require
    (v.rows = w.rows && v.cols = w.cols && g.rows = w.rows && g.cols = w.cols)
    "Matrix.momentum_step: dimensions";
  let w = w.data and v = v.data and g = g.data in
  for k = 0 to Array.length w - 1 do
    let vk =
      (momentum *. Array.unsafe_get v k) -. (rate *. Array.unsafe_get g k)
    in
    Array.unsafe_set v k vk;
    Array.unsafe_set w k (Array.unsafe_get w k +. vk)
  done
