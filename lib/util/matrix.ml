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

let rows m = m.rows

(* The kernels below run once per window in scoring and several times
   per (context -> next) pair in every training epoch.  Each checks its
   arguments once per call with [invalid_arg] (which, unlike [assert],
   no build flag removes); its inner loop then reads and writes
   unchecked, since every index it forms lies inside the arrays just
   checked.  Accumulators live in destination cells: the scoring paths
   call these per window, where a ref accumulator would allocate (lint
   R11).  The products run column by column, so each row still adds its
   terms in ascending column order while successive additions go to
   different rows and do not wait on each other. *)

let require ok msg =
  (* lint: allow partiality — documented precondition *)
  if not ok then invalid_arg msg

let mul_vec_into m v dst =
  require
    (Array.length v = m.cols && Array.length dst = m.rows)
    "Matrix.mul_vec_into: dimensions";
  Array.fill dst 0 m.rows 0.0;
  for j = 0 to m.cols - 1 do
    let vj = v.(j) in
    for i = 0 to m.rows - 1 do
      Array.unsafe_set dst i
        (Array.unsafe_get dst i
        +. (Array.unsafe_get m.data ((i * m.cols) + j) *. vj))
    done
  done

let tmul_vec_into m v dst =
  require
    (Array.length v = m.rows && Array.length dst = m.cols)
    "Matrix.tmul_vec_into: dimensions";
  Array.fill dst 0 m.cols 0.0;
  for i = 0 to m.rows - 1 do
    let base = i * m.cols in
    let vi = v.(i) in
    if vi <> 0.0 then
      for j = 0 to m.cols - 1 do
        Array.unsafe_set dst j
          (Array.unsafe_get dst j +. (Array.unsafe_get m.data (base + j) *. vi))
      done
  done

let add_outer m u v ~scale =
  require
    (Array.length u = m.rows && Array.length v = m.cols)
    "Matrix.add_outer: dimensions";
  for i = 0 to m.rows - 1 do
    let base = i * m.cols in
    let ui = scale *. u.(i) in
    if ui <> 0.0 then
      for j = 0 to m.cols - 1 do
        Array.unsafe_set m.data (base + j)
          (Array.unsafe_get m.data (base + j) +. (ui *. Array.unsafe_get v j))
      done
  done

(* The one-hot kernels check every column: an index past the last
   column would read the next row. *)
let require_one_hot m hot ~pos ~len =
  require
    (pos >= 0 && len >= 0 && pos + len <= Array.length hot)
    "Matrix: one-hot range";
  for c = pos to pos + len - 1 do
    require (hot.(c) >= 0 && hot.(c) < m.cols) "Matrix: one-hot column"
  done

let mul_one_hot_into m hot ~pos ~len dst =
  require_one_hot m hot ~pos ~len;
  require (Array.length dst = m.rows) "Matrix.mul_one_hot_into: dimensions";
  Array.fill dst 0 m.rows 0.0;
  for c = pos to pos + len - 1 do
    let j = Array.unsafe_get hot c in
    for i = 0 to m.rows - 1 do
      Array.unsafe_set dst i
        (Array.unsafe_get dst i +. Array.unsafe_get m.data ((i * m.cols) + j))
    done
  done

let add_outer_one_hot m u hot ~pos ~len =
  require_one_hot m hot ~pos ~len;
  require (Array.length u = m.rows) "Matrix.add_outer_one_hot: dimensions";
  for i = 0 to m.rows - 1 do
    let base = i * m.cols in
    let ui = u.(i) in
    if ui <> 0.0 then
      for c = pos to pos + len - 1 do
        let k = base + Array.unsafe_get hot c in
        Array.unsafe_set m.data k (Array.unsafe_get m.data k +. ui)
      done
  done

let scale_in_place m c =
  for k = 0 to Array.length m.data - 1 do
    m.data.(k) <- m.data.(k) *. c
  done

let momentum_step w ~velocity:v ~grad:g ~momentum ~rate =
  require
    (v.rows = w.rows && v.cols = w.cols && g.rows = w.rows && g.cols = w.cols)
    "Matrix.momentum_step: dimensions";
  for k = 0 to Array.length w.data - 1 do
    v.data.(k) <- (momentum *. v.data.(k)) -. (rate *. g.data.(k));
    w.data.(k) <- w.data.(k) +. v.data.(k)
  done
