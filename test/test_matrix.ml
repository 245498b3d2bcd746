open Seqdiv_util
open Seqdiv_test_support

let unit_vector n j = Array.init n (fun i -> if i = j then 1.0 else 0.0)

(* The matrix with the given rows, built as a sum of rank-1 updates
   e_i · row_iᵀ, which are exact. *)
let of_rows rows =
  let r = Array.length rows and c = Array.length rows.(0) in
  let m = Matrix.create ~rows:r ~cols:c in
  Array.iteri (fun i row -> Matrix.add_outer m (unit_vector r i) row ~scale:1.0) rows;
  m

(* Entry (i, j) read through the product with e_j: the other terms are
   products by zero, so the sum is the entry itself. *)
let entry m ~cols i j =
  let dst = Array.make (Matrix.rows m) 0.0 in
  Matrix.mul_vec_into m (unit_vector cols j) dst;
  dst.(i)

let m_2x3 () = of_rows [| [| 1.0; 2.0; 3.0 |]; [| 4.0; 5.0; 6.0 |] |]

let test_create_zero () =
  let m = Matrix.create ~rows:3 ~cols:2 in
  Alcotest.(check int) "rows" 3 (Matrix.rows m);
  for i = 0 to 2 do
    for j = 0 to 1 do
      check_float "zero" ~epsilon:0.0 0.0 (entry m ~cols:2 i j)
    done
  done

let test_mul_vec () =
  let dst = Array.make 2 nan in
  Matrix.mul_vec_into (m_2x3 ()) [| 1.0; 0.0; -1.0 |] dst;
  Alcotest.(check (array (float 1e-9))) "m*v" [| -2.0; -2.0 |] dst

let test_tmul_vec () =
  let dst = Array.make 3 nan in
  Matrix.tmul_vec_into (m_2x3 ()) [| 1.0; -1.0 |] dst;
  Alcotest.(check (array (float 1e-9))) "m'*v" [| -3.0; -3.0; -3.0 |] dst

let test_add_outer () =
  let m = Matrix.create ~rows:2 ~cols:2 in
  Matrix.add_outer m [| 1.0; 2.0 |] [| 3.0; 4.0 |] ~scale:0.5;
  check_float "(0,0)" ~epsilon:1e-9 1.5 (entry m ~cols:2 0 0);
  check_float "(1,1)" ~epsilon:1e-9 4.0 (entry m ~cols:2 1 1)

let test_scale_add_in_place () =
  let w = m_2x3 () and v = m_2x3 () and g = m_2x3 () in
  Matrix.scale_in_place v 2.0;
  check_float "scaled" ~epsilon:1e-9 12.0 (entry v ~cols:3 1 2);
  check_float "others untouched" ~epsilon:1e-9 6.0 (entry g ~cols:3 1 2);
  Matrix.momentum_step w ~velocity:v ~grad:g ~momentum:0.5 ~rate:0.25;
  (* v = 0.5 * 12 - 0.25 * 6, then w = 6 + v *)
  check_float "velocity" ~epsilon:1e-9 4.5 (entry v ~cols:3 1 2);
  check_float "weights" ~epsilon:1e-9 10.5 (entry w ~cols:3 1 2);
  check_float "gradient untouched" ~epsilon:1e-9 6.0 (entry g ~cols:3 1 2)

let test_random_range () =
  let rng = Prng.create ~seed:1 in
  let m = Matrix.random rng ~rows:10 ~cols:10 ~scale:0.25 in
  for i = 0 to 9 do
    for j = 0 to 9 do
      let x = entry m ~cols:10 i j in
      if x < -0.25 || x > 0.25 then Alcotest.fail "out of scale"
    done
  done

let small_mat =
  QCheck.(
    map
      (fun (rows, cols, seed) ->
        let rng = Prng.create ~seed in
        (Matrix.random rng ~rows:(rows + 1) ~cols:(cols + 1) ~scale:1.0, cols + 1))
      (triple (int_bound 6) (int_bound 6) small_int))

let prop_adjoint =
  (* <A v, u> = <v, A' u> — exercises both products together. *)
  qcheck "adjoint identity" QCheck.(pair small_mat small_int)
    (fun ((m, cols), seed) ->
      let rng = Prng.create ~seed:(seed + 1) in
      let v = Array.init cols (fun _ -> Prng.float rng 2.0 -. 1.0) in
      let u = Array.init (Matrix.rows m) (fun _ -> Prng.float rng 2.0 -. 1.0) in
      let dot a b =
        Array.fold_left ( +. ) 0.0 (Array.mapi (fun i x -> x *. b.(i)) a)
      in
      let mv = Array.make (Matrix.rows m) 0.0 and mtu = Array.make cols 0.0 in
      Matrix.mul_vec_into m v mv;
      Matrix.tmul_vec_into m u mtu;
      Float.abs (dot mv u -. dot v mtu) < 1e-9)

let prop_outer_rank1 =
  qcheck "add_outer adds u_i*v_j" QCheck.(pair (int_bound 5) (int_bound 5))
    (fun (i, j) ->
      let rows = 6 and cols = 6 in
      let m = Matrix.create ~rows ~cols in
      let u = Array.init rows (fun x -> float_of_int (x + 1)) in
      let v = Array.init cols (fun x -> float_of_int ((2 * x) + 1)) in
      Matrix.add_outer m u v ~scale:1.0;
      Float.abs (entry m ~cols i j -. (u.(i) *. v.(j))) < 1e-9)

(* A context of [blocks] one-hot blocks of width [k] over a random
   matrix: its hot columns (one per block, ascending) and the dense
   vector they encode. *)
let one_hot_case =
  QCheck.(
    map
      (fun (rows, blocks, k, seed) ->
        let rows = rows + 1 and blocks = blocks + 1 and k = k + 1 in
        let rng = Prng.create ~seed in
        let m = Matrix.random rng ~rows ~cols:(blocks * k) ~scale:1.0 in
        let hot = Array.init blocks (fun b -> (b * k) + Prng.int rng k) in
        let x = Array.make (blocks * k) 0.0 in
        Array.iter (fun c -> x.(c) <- 1.0) hot;
        let u = Array.init rows (fun _ -> Prng.float rng 2.0 -. 1.0) in
        (m, rows, hot, x, u, seed))
      (quad (int_bound 7) (int_bound 6) (int_bound 8) small_int))

let same_bits a b =
  Array.for_all2 (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)) a b

let prop_one_hot_product =
  qcheck "one-hot product = dense product, bit for bit" one_hot_case
    (fun (m, rows, hot, x, _, _) ->
      let sparse = Array.make rows nan and dense = Array.make rows nan in
      Matrix.mul_one_hot_into m hot ~pos:0 ~len:(Array.length hot) sparse;
      Matrix.mul_vec_into m x dense;
      same_bits sparse dense)

let prop_one_hot_outer =
  qcheck "one-hot outer = dense outer, bit for bit" one_hot_case
    (fun (m, rows, hot, x, u, seed) ->
      let cols = Array.length x in
      let dense = Matrix.random (Prng.create ~seed) ~rows ~cols ~scale:1.0 in
      (* The hot columns sit at an offset in a longer buffer, as the
         trainer stores them. *)
      let buffer = Array.append [| -1; cols |] hot in
      Matrix.add_outer_one_hot m u buffer ~pos:2 ~len:(Array.length hot);
      Matrix.add_outer dense u x ~scale:1.0;
      let column mat j =
        let dst = Array.make rows 0.0 in
        Matrix.mul_vec_into mat (unit_vector cols j) dst;
        dst
      in
      List.for_all
        (fun j -> same_bits (column m j) (column dense j))
        (List.init cols Fun.id))

let test_one_hot_column_in_row () =
  (* A column index past the last column would read the next row. *)
  let m = m_2x3 () in
  let dst = Array.make 2 0.0 in
  let rejected what f =
    Alcotest.check_raises what (Invalid_argument "Matrix: one-hot column") f
  in
  List.iter
    (fun c ->
      rejected (Printf.sprintf "product, column %d" c) (fun () ->
          Matrix.mul_one_hot_into m [| 0; c |] ~pos:0 ~len:2 dst);
      rejected (Printf.sprintf "outer, column %d" c) (fun () ->
          Matrix.add_outer_one_hot m [| 1.0; 1.0 |] [| c |] ~pos:0 ~len:1))
    [ 3; -1 ];
  Alcotest.check_raises "range past the array"
    (Invalid_argument "Matrix: one-hot range") (fun () ->
      Matrix.mul_one_hot_into m [| 0; 1 |] ~pos:1 ~len:2 dst)

let test_dimensions_checked () =
  let m = m_2x3 () in
  Alcotest.check_raises "short vector"
    (Invalid_argument "Matrix.mul_vec_into: dimensions") (fun () ->
      Matrix.mul_vec_into m [| 1.0; 1.0 |] (Array.make 2 0.0));
  Alcotest.check_raises "long destination"
    (Invalid_argument "Matrix.tmul_vec_into: dimensions") (fun () ->
      Matrix.tmul_vec_into m [| 1.0; 1.0 |] (Array.make 4 0.0))

let () =
  Alcotest.run "matrix"
    [
      ( "matrix",
        [
          Alcotest.test_case "create zero" `Quick test_create_zero;
          Alcotest.test_case "mul_vec" `Quick test_mul_vec;
          Alcotest.test_case "tmul_vec" `Quick test_tmul_vec;
          Alcotest.test_case "add_outer" `Quick test_add_outer;
          Alcotest.test_case "scale/add in place" `Quick test_scale_add_in_place;
          Alcotest.test_case "random range" `Quick test_random_range;
          Alcotest.test_case "one-hot column in row" `Quick test_one_hot_column_in_row;
          Alcotest.test_case "dimensions checked" `Quick test_dimensions_checked;
          prop_adjoint;
          prop_outer_rank1;
          prop_one_hot_product;
          prop_one_hot_outer;
        ] );
    ]
