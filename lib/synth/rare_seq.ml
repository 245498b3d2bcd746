open Seqdiv_stream

let candidates index ~size ~rare_threshold =
  assert (size >= 2 && size <= Seq_trie.max_len index);
  let total = float_of_int (Seq_trie.total index size) in
  let rare = ref [] in
  Seq_trie.iter_slice index ~depth:size (fun w count ->
      let freq = float_of_int count /. total in
      if freq < rare_threshold then rare := (freq, Array.copy w) :: !rare);
  List.sort compare !rare |> List.map snd

let find index ~size ~rare_threshold =
  match candidates index ~size ~rare_threshold with
  | c :: _ -> Ok c
  | [] ->
      Error
        (Printf.sprintf
           "no rare sequence of size %d at threshold %g exists in this \
            training data"
           size rare_threshold)
