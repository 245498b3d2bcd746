let fnv_basis = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L
let fnv_int64 h x = Int64.mul (Int64.logxor h x) fnv_prime
let fnv_int h x = fnv_int64 h (Int64.of_int x)
let fnv_string h s = String.fold_left (fun h c -> fnv_int h (Char.code c)) h s
let fnv s = fnv_string fnv_basis s
let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] splitmix64 z =
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)
