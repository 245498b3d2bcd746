type t = { mutable state : int64 }

let create ~seed = { state = Int64.of_int seed }

let copy t = { state = t.state }

(* SplitMix64: one additive step, then the finaliser. *)
let bits64 t =
  t.state <- Int64.add t.state Hash.golden_gamma;
  Hash.splitmix64 t.state

let split t = { state = bits64 t }

let int t n =
  assert (n > 0);
  (* Take the top bits; modulo bias is negligible for the range sizes used
     here (n well below 2^32) but we mask to 62 bits to stay positive. *)
  let v = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) in
  v mod n

let float t x =
  let v = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  x *. (v /. 9007199254740992.0 (* 2^53 *))

let bool t = Int64.logand (bits64 t) 1L = 1L

let choose t a =
  assert (Array.length a > 0);
  a.(int t (Array.length a))

let shuffle_in_place t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let gaussian t =
  let rec draw () =
    let u = float t 1.0 in
    if u = 0.0 then draw () else u
  in
  let u1 = draw () and u2 = float t 1.0 in
  sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)
