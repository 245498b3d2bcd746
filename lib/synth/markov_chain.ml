open Seqdiv_stream
open Seqdiv_util

type t = {
  alphabet : Alphabet.t;
  rows : float array array; (* normalised *)
  samplers : Sampling.t array;
}

let of_matrix alphabet p =
  let k = Alphabet.size alphabet in
  (* lint: allow partiality — documented precondition *)
  if Array.length p <> k then invalid_arg "Markov_chain.of_matrix: row count";
  let rows =
    Array.map
      (fun row ->
        if Array.length row <> k then
          (* lint: allow partiality — documented precondition *)
          invalid_arg "Markov_chain.of_matrix: column count";
        Array.iter
          (fun x ->
            (* lint: allow partiality — documented precondition *)
            if x < 0.0 then invalid_arg "Markov_chain.of_matrix: negative")
          row;
        let total = Array.fold_left ( +. ) 0.0 row in
        (* lint: allow partiality — documented precondition *)
        if total <= 0.0 then invalid_arg "Markov_chain.of_matrix: zero row";
        Array.map (fun x -> x /. total) row)
      p
  in
  let samplers = Array.map Sampling.of_weights rows in
  { alphabet; rows; samplers }

let prob t i j =
  assert (Alphabet.mem t.alphabet i && Alphabet.mem t.alphabet j);
  t.rows.(i).(j)

let successors t i =
  assert (Alphabet.mem t.alphabet i);
  Sampling.support t.samplers.(i)

let has_structural_zeros t =
  Array.exists (fun row -> Array.exists (fun x -> x = 0.0) row) t.rows

let paper_chain alphabet ~deviation =
  let k = Alphabet.size alphabet in
  (* lint: allow partiality — documented precondition *)
  if k < 5 then invalid_arg "Markov_chain.paper_chain: alphabet too small";
  if deviation < 0.0 || deviation >= 1.0 then
    (* lint: allow partiality — documented precondition *)
    invalid_arg "Markov_chain.paper_chain: deviation out of range";
  let rows =
    Array.init k (fun i ->
        let row = Array.make k 0.0 in
        row.((i + 1) mod k) <- 1.0 -. deviation;
        row.((i + 2) mod k) <- deviation /. 2.0;
        row.((i + 3) mod k) <- deviation /. 2.0;
        row)
  in
  of_matrix alphabet rows

let generate t rng ~start ~len =
  assert (Alphabet.mem t.alphabet start);
  assert (len >= 1);
  let out = Array.make len start in
  let current = ref start in
  for i = 1 to len - 1 do
    current := Sampling.draw t.samplers.(!current) rng;
    out.(i) <- !current
  done;
  Trace.of_array t.alphabet out

let stationary_cycle t =
  let k = Alphabet.size t.alphabet in
  Trace.of_array t.alphabet (Array.init k (fun i -> i))
