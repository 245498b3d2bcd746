(* Statistical property battery for the streaming quantile sketches.

   The headline theorem under test: after n observations a GK summary
   built at epsilon answers every rank query within ⌊ε·n⌋ ranks of the
   exact sorted-order statistic — on every adversarial stream shape,
   at every size, under any insertion batching, across merges, and
   through serialization. *)

open Seqdiv_util
open Seqdiv_core
open Seqdiv_test_support

(* --- stream shapes ------------------------------------------------------ *)

type shape = Uniform | Sorted | Reversed | Constant | Duplicates | Gaussian

let shape_name = function
  | Uniform -> "uniform"
  | Sorted -> "sorted"
  | Reversed -> "reversed"
  | Constant -> "constant"
  | Duplicates -> "duplicates"
  | Gaussian -> "gaussian"

let all_shapes = [ Uniform; Sorted; Reversed; Constant; Duplicates; Gaussian ]

let stream_of_shape shape ~n rng =
  let uniform () =
    Array.init n (fun _ -> Prng.float rng 1000.0 -. 500.0)
  in
  match shape with
  | Uniform -> uniform ()
  | Sorted ->
      let a = uniform () in
      Array.sort Float.compare a;
      a
  | Reversed ->
      let a = uniform () in
      Array.sort (fun x y -> Float.compare y x) a;
      a
  | Constant -> Array.make n 42.5
  | Duplicates ->
      (* A handful of heavy values: ranks pile onto ties, the classic
         GK stress (the summary must not collapse equal values). *)
      Array.init n (fun _ -> float_of_int (Prng.int rng 5))
  | Gaussian -> Array.init n (fun _ -> Prng.gaussian rng)

let phis = [ 0.0; 0.01; 0.1; 0.25; 0.5; 0.75; 0.9; 0.95; 0.99; 1.0 ]

(* The exact 1-based rank interval a value occupies in the data:
   [count(< v) + 1, count(<= v)] (empty when v is absent, in which
   case the interval collapses around its insertion point). *)
let rank_interval data v =
  let below = ref 0 and at_or_below = ref 0 in
  Array.iter
    (fun x ->
      if x < v then incr below;
      if x <= v then incr at_or_below)
    data;
  (!below + 1, !at_or_below)

(* Does [v] satisfy the GK guarantee for the phi-quantile of [data]
   within [err] ranks?  True iff the value's rank interval intersects
   [r - err, r + err]. *)
let within_rank data ~phi ~err v =
  let n = Array.length data in
  let r =
    Stdlib.min n
      (Stdlib.max 1 (int_of_float (Float.ceil (phi *. float_of_int n))))
  in
  let lo, hi = rank_interval data v in
  lo <= r + err && hi >= r - err

let gk_of_stream ~epsilon data =
  let q = Quantile.create ~epsilon in
  Array.iter (Quantile.observe q) data;
  q

let check_gk_bound ~what ~epsilon data q =
  let n = Array.length data in
  let err = int_of_float (epsilon *. float_of_int n) in
  List.iter
    (fun phi ->
      let v = Quantile.quantile q phi in
      if not (within_rank data ~phi ~err v) then
        Alcotest.failf "%s: phi=%g eps=%g n=%d answered %h outside ±%d ranks"
          what phi epsilon n v err)
    phis

(* --- GK: the ε-bound on adversarial shapes ----------------------------- *)

let test_gk_bound_shapes () =
  let sizes = [ 1; 2; 3; 7; 64; 1_000; 10_000; 100_000 ] in
  List.iter
    (fun shape ->
      List.iter
        (fun n ->
          List.iter
            (fun epsilon ->
              let rng = Prng.create ~seed:(n + (31 * List.length phis)) in
              let data = stream_of_shape shape ~n rng in
              let q = gk_of_stream ~epsilon data in
              Alcotest.(check int)
                (Printf.sprintf "%s n=%d count" (shape_name shape) n)
                n (Quantile.count q);
              check_gk_bound
                ~what:(Printf.sprintf "gk %s" (shape_name shape))
                ~epsilon data q)
            [ 0.05; 0.005 ])
        sizes)
    all_shapes

let test_gk_extremes_exact () =
  let rng = Prng.create ~seed:7 in
  let data = stream_of_shape Uniform ~n:5_000 rng in
  let q = gk_of_stream ~epsilon:0.01 data in
  let sorted = Array.copy data in
  Array.sort Float.compare sorted;
  Alcotest.(check (float 0.0))
    "max retained exactly"
    sorted.(Array.length sorted - 1)
    (Quantile.quantile q 1.0);
  (* The minimum anchors rank 1; a phi=0 query may legally sit a few
     ranks up, but the minimum must still be inside the summary. *)
  Alcotest.(check bool)
    "min within bound" true
    (Quantile.quantile q 0.0 <= sorted.(int_of_float (0.01 *. 5_000.0)))

(* The whole point of the summary: memory stays sub-linear.  The
   constant is loose (the adjacent-merge compress has no tight space
   theorem) but a broken compress — linear retention — fails it by two
   orders of magnitude. *)
let test_gk_bounded_memory () =
  List.iter
    (fun shape ->
      let rng = Prng.create ~seed:11 in
      let n = 100_000 in
      let data = stream_of_shape shape ~n rng in
      let epsilon = 0.01 in
      let q = gk_of_stream ~epsilon data in
      let cap = int_of_float (8.0 /. epsilon) in
      if Quantile.tuples q > cap then
        Alcotest.failf "%s: %d tuples retained after %d observations (cap %d)"
          (shape_name shape) (Quantile.tuples q) n cap)
    all_shapes

(* The inverse query: rank estimates must track the exact empirical
   CDF within epsilon on every shape — this is what adaptive
   thresholds lean on when they price the tail mass above the current
   threshold. *)
let test_gk_rank_bound () =
  let epsilon = 0.01 in
  List.iter
    (fun shape ->
      List.iter
        (fun n ->
          let rng = Prng.create ~seed:(97 + n) in
          let data = stream_of_shape shape ~n rng in
          let q = gk_of_stream ~epsilon data in
          let sorted = Array.copy data in
          Array.sort Float.compare sorted;
          let exact_cdf x =
            let c = ref 0 in
            Array.iter (fun v -> if v <= x then incr c) data;
            float_of_int !c /. float_of_int n
          in
          let probes =
            sorted.(0) :: sorted.(n - 1)
            :: List.init 9 (fun i -> sorted.(i * (n - 1) / 8))
            @ List.init 8 (fun i ->
                  (* midpoints between adjacent probe values: exercise
                     queries at values absent from the stream *)
                  (sorted.(i * (n - 1) / 8) +. sorted.((i + 1) * (n - 1) / 8))
                  /. 2.0)
          in
          List.iter
            (fun x ->
              let est = Quantile.rank q x in
              let exact = exact_cdf x in
              let slack = epsilon +. (2.0 /. float_of_int n) in
              if Float.abs (est -. exact) > slack then
                Alcotest.failf "%s n=%d: rank %h answered %g, exact %g (±%g)"
                  (shape_name shape) n x est exact slack)
            probes;
          (* The exact extremes pin the ends. *)
          check_float "below min" ~epsilon:0.0 0.0
            (Quantile.rank q (sorted.(0) -. 1.0));
          check_float "at max" ~epsilon:0.0 1.0 (Quantile.rank q sorted.(n - 1)))
        [ 64; 5_000 ])
    all_shapes

let test_gk_nan_rejected () =
  let q = Quantile.create ~epsilon:0.1 in
  Alcotest.check_raises "NaN rejected"
    (Invalid_argument "Quantile.observe: NaN") (fun () ->
      Quantile.observe q Float.nan);
  Alcotest.check_raises "empty query rejected"
    (Invalid_argument "Quantile.quantile: empty summary") (fun () ->
      ignore (Quantile.quantile q 0.5))

(* --- GK: determinism under batching ------------------------------------ *)

let scores_arb =
  QCheck.(
    list_of_size Gen.(1 -- 400)
      (map (fun i -> float_of_int (i - 500) /. 7.0) (int_bound 1000)))

let chunked_arb =
  (* A stream plus an arbitrary chunking of it. *)
  QCheck.(pair scores_arb (list_of_size Gen.(0 -- 20) (1 -- 50)))

let prop_batch_invariance (scores, cuts) =
  let one = Quantile.create ~epsilon:0.02 in
  List.iter (Quantile.observe one) scores;
  (* Re-feed the same stream in the generated chunk sizes: state must
     be bit-identical — compression triggers on observation counts,
     never on buffer shapes. *)
  let batched = Quantile.create ~epsilon:0.02 in
  let remaining = ref scores in
  List.iter
    (fun cut ->
      let rec take k =
        if k > 0 then
          match !remaining with
          | [] -> ()
          | x :: rest ->
              remaining := rest;
              Quantile.observe batched x;
              take (k - 1)
      in
      take cut)
    cuts;
  List.iter (Quantile.observe batched) !remaining;
  Quantile.equal one batched

(* --- GK: merge ---------------------------------------------------------- *)

let prop_merge_commutative (xs, ys) =
  let a = Quantile.create ~epsilon:0.03 in
  List.iter (Quantile.observe a) xs;
  let b = Quantile.create ~epsilon:0.02 in
  List.iter (Quantile.observe b) ys;
  Quantile.equal (Quantile.merge a b) (Quantile.merge b a)

(* A fixed pair that failed commutativity while merge took only the
   left one of two identical tuples: streams drawn from seed 7502, with
   many repeated values. *)
let test_merge_commutative_regression () =
  let rng = Prng.create ~seed:7502 in
  let stream () =
    Array.to_list
      (Array.init
         (1 + Prng.int rng 400)
         (fun _ -> float_of_int ((Prng.int rng 1001 - 500) / 7)))
  in
  let xs = stream () in
  let ys = stream () in
  Alcotest.(check bool) "merge a b = merge b a" true
    (prop_merge_commutative (xs, ys))

let test_merge_bound () =
  (* Halves summarised at ε/2 merge into an ε summary whose widened
     bound must hold against the exact sorted concatenation. *)
  let epsilon = 0.02 in
  List.iter
    (fun shape ->
      let rng = Prng.create ~seed:23 in
      let n = 20_000 in
      let data = stream_of_shape shape ~n rng in
      let a = Quantile.create ~epsilon:(epsilon /. 2.0) in
      let b = Quantile.create ~epsilon:(epsilon /. 2.0) in
      Array.iteri
        (fun i v -> Quantile.observe (if i < n / 2 then a else b) v)
        data;
      let m = Quantile.merge a b in
      check_float "merged epsilon" ~epsilon:1e-15 epsilon
        (Quantile.epsilon m);
      Alcotest.(check int) "merged count" n (Quantile.count m);
      check_gk_bound
        ~what:(Printf.sprintf "merge %s" (shape_name shape))
        ~epsilon data m)
    all_shapes

let test_merge_order_bound () =
  (* Folding k chunk-summaries in any association stays within the
     summed bound. *)
  let rng = Prng.create ~seed:29 in
  let n = 12_000 in
  let k = 4 in
  let data = stream_of_shape Uniform ~n rng in
  let parts =
    Array.init k (fun p ->
        let q = Quantile.create ~epsilon:0.005 in
        for i = 0 to n - 1 do
          if i mod k = p then Quantile.observe q data.(i)
        done;
        q)
  in
  let left =
    Array.fold_left
      (fun acc q -> match acc with None -> Some q | Some m -> Some (Quantile.merge m q))
      None parts
  in
  let right =
    Array.fold_right
      (fun q acc -> match acc with None -> Some q | Some m -> Some (Quantile.merge q m))
      parts None
  in
  match (left, right) with
  | Some l, Some r ->
      check_gk_bound ~what:"merge fold-left" ~epsilon:(Quantile.epsilon l) data
        l;
      check_gk_bound ~what:"merge fold-right" ~epsilon:(Quantile.epsilon r)
        data r;
      check_float "fold epsilons agree" ~epsilon:1e-15 (Quantile.epsilon l)
        (Quantile.epsilon r)
  | _ -> Alcotest.fail "no parts"

(* --- GK: serialization -------------------------------------------------- *)

let prop_gk_roundtrip scores =
  let q = Quantile.create ~epsilon:0.04 in
  List.iter (Quantile.observe q) scores;
  match Quantile.of_string (Quantile.to_string q) with
  | Some q' ->
      Quantile.equal q q'
      && (scores = [] || Quantile.quantile q 0.9 = Quantile.quantile q' 0.9)
  | None -> false

let test_gk_token_shape () =
  let q = Quantile.create ~epsilon:0.1 in
  List.iter (Quantile.observe q) [ 3.0; 1.0; 2.0 ];
  let tok = Quantile.to_string q in
  Alcotest.(check bool) "no spaces" false (String.contains tok ' ');
  Alcotest.(check bool) "tagged" true
    (String.length tok > 4 && String.sub tok 0 4 = "gk1:")

let test_gk_of_string_rejects () =
  List.iter
    (fun bad ->
      match Quantile.of_string bad with
      | None -> ()
      | Some _ -> Alcotest.failf "accepted malformed token %S" bad)
    [
      "";
      "nonsense";
      "gk1:zz:3:3:0:";
      (* count lies about the tuples *)
      "gk1:3fb999999999999a:3:3:9:3ff0000000000000.1.0";
      (* unsorted tuple values *)
      "gk1:3fb999999999999a:2:2:2:4000000000000000.1.0,3ff0000000000000.1.0";
      (* g must be >= 1 *)
      "gk1:3fb999999999999a:1:1:1:3ff0000000000000.0.0";
    ]

let () =
  Alcotest.run "quantile"
    [
      ( "gk",
        [
          Alcotest.test_case "eps bound on adversarial shapes" `Quick
            test_gk_bound_shapes;
          Alcotest.test_case "extremes exact" `Quick test_gk_extremes_exact;
          Alcotest.test_case "bounded memory" `Quick test_gk_bounded_memory;
          Alcotest.test_case "rank tracks the exact CDF" `Quick
            test_gk_rank_bound;
          Alcotest.test_case "NaN and empty rejected" `Quick
            test_gk_nan_rejected;
          qcheck ~count:300 "batch invariance" chunked_arb
            prop_batch_invariance;
        ] );
      ( "merge",
        [
          qcheck ~count:200 "commutative (bit level)"
            QCheck.(pair scores_arb scores_arb)
            prop_merge_commutative;
          Alcotest.test_case "commutative on seed 7502" `Quick
            test_merge_commutative_regression;
          Alcotest.test_case "halved-eps merge bound" `Quick test_merge_bound;
          Alcotest.test_case "fold-order bound" `Quick test_merge_order_bound;
        ] );
      ( "serialization",
        [
          qcheck ~count:300 "gk roundtrip" scores_arb prop_gk_roundtrip;
          Alcotest.test_case "token journal-safe" `Quick test_gk_token_shape;
          Alcotest.test_case "malformed rejected" `Quick
            test_gk_of_string_rejects;
        ] );
    ]
