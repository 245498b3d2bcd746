open Seqdiv_util
open Seqdiv_test_support

let unit_vector n j = Array.init n (fun i -> if i = j then 1.0 else 0.0)

(* The matrix with the given rows, each added to a zero row with
   [add_to_rows]: [0.0 +. x] is [x] for every non-zero [x]. *)
let of_rows rows =
  let r = Array.length rows and c = Array.length rows.(0) in
  let m = Matrix.create ~rows:r ~cols:c in
  Array.iteri (fun i row -> Matrix.add_to_rows m row [| i |] ~pos:0 ~len:1) rows;
  m

(* Entry (i, j) read through the product with e_j: the other terms are
   products by zero, so the sum is the entry itself. *)
let entry m ~cols i j =
  let dst = Array.make (Matrix.rows m) 0.0 in
  Matrix.mul_vec_into m (unit_vector cols j) dst;
  dst.(i)

(* The entries, row by row. *)
let dense m ~cols =
  Array.init (Matrix.rows m) (fun i -> Array.init cols (fun j -> entry m ~cols i j))

let m_2x3 () = of_rows [| [| 1.0; 2.0; 3.0 |]; [| 4.0; 5.0; 6.0 |] |]

let same_bits a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

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

(* The two halves of the output layer's fused back-propagation. *)
let test_tmul_vec () =
  let back = Array.make 3 nan in
  Matrix.add_outer_tmul_into (m_2x3 ()) [| 1.0; -1.0 |] [| 0.0; 0.0; 0.0 |]
    ~grad:(Matrix.create ~rows:2 ~cols:3) ~back;
  Alcotest.(check (array (float 1e-9))) "m'*u" [| -3.0; -3.0; -3.0 |] back

let test_add_outer () =
  let grad = Matrix.create ~rows:2 ~cols:2 in
  Matrix.add_outer_tmul_into
    (Matrix.create ~rows:2 ~cols:2)
    [| 0.5; 1.0 |] [| 3.0; 4.0 |] ~grad ~back:(Array.make 2 nan);
  check_float "(0,0)" ~epsilon:1e-9 1.5 (entry grad ~cols:2 0 0);
  check_float "(1,1)" ~epsilon:1e-9 4.0 (entry grad ~cols:2 1 1)

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

(* Dimensions 1..9 cover the four-wide loops' remainders. *)
let small_mat =
  QCheck.(
    map
      (fun (rows, cols, seed) ->
        let rng = Prng.create ~seed in
        (Matrix.random rng ~rows:(rows + 1) ~cols:(cols + 1) ~scale:1.0, cols + 1))
      (triple (int_bound 8) (int_bound 8) small_int))

(* A vector of uniform draws in [-1, 1], a quarter of them [0.0]. *)
let draws rng n =
  Array.init n (fun _ ->
      if Prng.int rng 4 = 0 then 0.0 else Prng.float rng 2.0 -. 1.0)

let prop_transpose =
  qcheck "transpose swaps entries" small_mat (fun (m, cols) ->
      let rows = Matrix.rows m in
      let a = dense m ~cols and t = dense (Matrix.transpose m) ~cols:rows in
      Matrix.rows (Matrix.transpose m) = cols
      && List.for_all
           (fun j -> same_bits t.(j) (Array.init rows (fun i -> a.(i).(j))))
           (List.init cols Fun.id))

let prop_mul_vec_dense =
  qcheck "mul_vec = dense product, bit for bit" QCheck.(pair small_mat small_int)
    (fun ((m, cols), seed) ->
      let v = draws (Prng.create ~seed) cols in
      let a = dense m ~cols in
      let expected =
        Array.map
          (fun row ->
            let acc = ref 0.0 in
            Array.iteri (fun j x -> acc := !acc +. (x *. v.(j))) row;
            !acc)
          a
      in
      let dst = Array.make (Matrix.rows m) nan in
      Matrix.mul_vec_into m v dst;
      same_bits dst expected)

let prop_add_outer_tmul_dense =
  qcheck "add_outer_tmul = dense outer and product, bit for bit"
    QCheck.(pair small_mat small_int)
    (fun ((m, cols), seed) ->
      let rows = Matrix.rows m in
      let rng = Prng.create ~seed in
      let u = draws rng rows and v = draws rng cols in
      let grad = Matrix.random rng ~rows ~cols ~scale:1.0 in
      let a = dense m ~cols and g = dense grad ~cols in
      let back = Array.make cols nan in
      Matrix.add_outer_tmul_into m u v ~grad ~back;
      let expected_back =
        Array.init cols (fun j ->
            let acc = ref 0.0 in
            for i = 0 to rows - 1 do
              acc := !acc +. (a.(i).(j) *. u.(i))
            done;
            !acc)
      in
      let expected_grad =
        Array.mapi (fun i row -> Array.mapi (fun j x -> x +. (u.(i) *. v.(j))) row) g
      in
      same_bits back expected_back
      && Array.for_all2 same_bits (dense grad ~cols) expected_grad)

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
      Matrix.add_outer_tmul_into m u v
        ~grad:(Matrix.create ~rows:(Matrix.rows m) ~cols)
        ~back:mtu;
      Float.abs (dot mv u -. dot v mtu) < 1e-9)

let prop_outer_rank1 =
  qcheck "add_outer adds u_i*v_j" QCheck.(pair (int_bound 5) (int_bound 5))
    (fun (i, j) ->
      let rows = 6 and cols = 6 in
      let grad = Matrix.create ~rows ~cols in
      let u = Array.init rows (fun x -> float_of_int (x + 1)) in
      let v = Array.init cols (fun x -> float_of_int ((2 * x) + 1)) in
      Matrix.add_outer_tmul_into (Matrix.create ~rows ~cols) u v ~grad
        ~back:(Array.make cols 0.0);
      Float.abs (entry grad ~cols i j -. (u.(i) *. v.(j))) < 1e-9)

(* A context of [blocks] one-hot blocks of width [k] over a random
   input-major matrix (one row per input, [width] columns): its hot
   rows (one per block, ascending), the dense vector they encode, and a
   random vector as long as a row. *)
let one_hot_case =
  QCheck.(
    map
      (fun (width, blocks, k, seed) ->
        let width = width + 1 and blocks = blocks + 1 and k = k + 1 in
        let rng = Prng.create ~seed in
        let m = Matrix.random rng ~rows:(blocks * k) ~cols:width ~scale:1.0 in
        let hot = Array.init blocks (fun b -> (b * k) + Prng.int rng k) in
        let x = Array.make (blocks * k) 0.0 in
        Array.iter (fun r -> x.(r) <- 1.0) hot;
        (m, width, k, hot, x, draws rng width, seed))
      (quad (int_bound 8) (int_bound 6) (int_bound 8) small_int))

(* [mᵀ · x], each column summed from [0.0] in ascending row order. *)
let dense_tmul a x =
  Array.init (Array.length a.(0)) (fun j ->
      let acc = ref 0.0 in
      Array.iteri (fun r row -> acc := !acc +. (row.(j) *. x.(r))) a;
      !acc)

(* The one-hot vector of the first [n] hot rows. *)
let prefix_vector hot rows n =
  let x = Array.make rows 0.0 in
  for b = 0 to n - 1 do
    x.(hot.(b)) <- 1.0
  done;
  x

let prop_one_hot_product =
  qcheck "one-hot product = dense product, bit for bit" one_hot_case
    (fun (m, width, _, hot, _, _, _) ->
      let len = Array.length hot and rows = Matrix.rows m in
      let a = dense m ~cols:width in
      let sums = Array.make (len * width) nan in
      Matrix.sum_rows_into m hot ~pos:0 ~len sums ~from:0;
      List.for_all
        (fun j ->
          same_bits
            (Array.sub sums (j * width) width)
            (dense_tmul a (prefix_vector hot rows (j + 1))))
        (List.init len Fun.id))

(* Continuing from the sums of a context that shares a prefix gives the
   sums a fresh start would. *)
let prop_one_hot_prefix =
  qcheck "one-hot product continues a shared prefix" one_hot_case
    (fun (m, width, k, hot, _, _, seed) ->
      let len = Array.length hot and rows = Matrix.rows m in
      let rng = Prng.create ~seed:(seed + 1) in
      let from = Prng.int rng (len + 1) in
      let other =
        Array.mapi (fun b r -> if b < from then r else (b * k) + Prng.int rng k) hot
      in
      let sums = Array.make (len * width) nan in
      Matrix.sum_rows_into m hot ~pos:0 ~len sums ~from:0;
      (* The second context sits at an offset in a longer buffer, as the
         trainer stores them. *)
      Matrix.sum_rows_into m (Array.append hot other) ~pos:len ~len sums ~from;
      let fresh = Array.make (len * width) nan in
      Matrix.sum_rows_into m other ~pos:0 ~len fresh ~from:0;
      same_bits sums fresh
      && same_bits
           (Array.sub sums ((len - 1) * width) width)
           (dense_tmul (dense m ~cols:width) (prefix_vector other rows len)))

let prop_one_hot_outer =
  qcheck "one-hot outer = dense outer, bit for bit" one_hot_case
    (fun (m, width, _, hot, x, u, _) ->
      let a = dense m ~cols:width in
      (* The hot rows sit at an offset in a longer buffer, as the
         trainer stores them. *)
      let buffer = Array.append [| -1; Matrix.rows m |] hot in
      Matrix.add_to_rows m u buffer ~pos:2 ~len:(Array.length hot);
      let expected =
        Array.mapi (fun r row -> Array.mapi (fun j y -> y +. (x.(r) *. u.(j))) row) a
      in
      Array.for_all2 same_bits (dense m ~cols:width) expected)

let test_one_hot_row_in_matrix () =
  (* A row index past the last row would read past the matrix. *)
  let m = m_2x3 () in
  let sums = Array.make 6 0.0 in
  let rejected what f =
    Alcotest.check_raises what (Invalid_argument "Matrix: one-hot row") f
  in
  List.iter
    (fun r ->
      rejected (Printf.sprintf "product, row %d" r) (fun () ->
          Matrix.sum_rows_into m [| 0; r |] ~pos:0 ~len:2 sums ~from:0);
      rejected (Printf.sprintf "product from 1, row %d" r) (fun () ->
          Matrix.sum_rows_into m [| 0; r |] ~pos:0 ~len:2 sums ~from:1);
      rejected (Printf.sprintf "outer, row %d" r) (fun () ->
          Matrix.add_to_rows m [| 1.0; 1.0; 1.0 |] [| r |] ~pos:0 ~len:1))
    [ 2; -1 ];
  Alcotest.check_raises "range past the array"
    (Invalid_argument "Matrix: one-hot range") (fun () ->
      Matrix.sum_rows_into m [| 0; 1 |] ~pos:1 ~len:2 sums ~from:0);
  Alcotest.check_raises "prefix past the context"
    (Invalid_argument "Matrix.sum_rows_into: dimensions") (fun () ->
      Matrix.sum_rows_into m [| 0; 1 |] ~pos:0 ~len:2 sums ~from:3);
  Alcotest.check_raises "short sums"
    (Invalid_argument "Matrix.sum_rows_into: dimensions") (fun () ->
      Matrix.sum_rows_into m [| 0; 1 |] ~pos:0 ~len:2 (Array.make 5 0.0) ~from:0)

let test_dimensions_checked () =
  let m = m_2x3 () in
  Alcotest.check_raises "short vector"
    (Invalid_argument "Matrix.mul_vec_into: dimensions") (fun () ->
      Matrix.mul_vec_into m [| 1.0; 1.0 |] (Array.make 2 0.0));
  Alcotest.check_raises "long back"
    (Invalid_argument "Matrix.add_outer_tmul_into: dimensions") (fun () ->
      Matrix.add_outer_tmul_into m [| 1.0; 1.0 |] [| 1.0; 1.0; 1.0 |]
        ~grad:(Matrix.create ~rows:2 ~cols:3) ~back:(Array.make 4 0.0));
  Alcotest.check_raises "gradient shape"
    (Invalid_argument "Matrix.add_outer_tmul_into: dimensions") (fun () ->
      Matrix.add_outer_tmul_into m [| 1.0; 1.0 |] [| 1.0; 1.0; 1.0 |]
        ~grad:(Matrix.create ~rows:3 ~cols:2) ~back:(Array.make 3 0.0));
  Alcotest.check_raises "short update"
    (Invalid_argument "Matrix.add_to_rows: dimensions") (fun () ->
      Matrix.add_to_rows m [| 1.0 |] [| 0 |] ~pos:0 ~len:1)

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
          Alcotest.test_case "one-hot row in matrix" `Quick test_one_hot_row_in_matrix;
          Alcotest.test_case "dimensions checked" `Quick test_dimensions_checked;
          prop_transpose;
          prop_mul_vec_dense;
          prop_add_outer_tmul_dense;
          prop_adjoint;
          prop_outer_rank1;
          prop_one_hot_product;
          prop_one_hot_prefix;
          prop_one_hot_outer;
        ] );
    ]
