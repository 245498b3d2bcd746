open Seqdiv_stream

type verdict =
  | Ok_minimal_foreign
  | Not_foreign of int
  | Sub_foreign of int * int
  | Too_short

let verify index candidate =
  let n = Array.length candidate in
  if n < 2 then Too_short
  else begin
    let full_count = Seq_trie.count_at index candidate ~pos:0 ~len:n in
    if full_count > 0 then Not_foreign full_count
    else begin
      (* Checking every contiguous proper sub-sequence directly, single
         symbols included; the two (n-1)-windows would suffice, but the
         exhaustive check documents the invariant and is what the tests
         rely on. *)
      let missing = ref None in
      for len = n - 1 downto 1 do
        for pos = 0 to n - len do
          if !missing = None && not (Seq_trie.mem_at index candidate ~pos ~len)
          then missing := Some (pos, len)
        done
      done;
      match !missing with
      | Some (pos, len) -> Sub_foreign (pos, len)
      | None -> Ok_minimal_foreign
    end
  end

let rare_twogram_count index ~threshold candidate =
  let n = Array.length candidate in
  let count = ref 0 in
  for i = 0 to n - 2 do
    if Seq_trie.is_rare_at index ~threshold candidate ~pos:i ~len:2 then
      incr count
  done;
  !count

let candidates_size2 index alphabet =
  let k = Alphabet.size alphabet in
  let out = ref [] in
  for a = k - 1 downto 0 do
    for b = k - 1 downto 0 do
      let c = [| a; b |] in
      if
        (not (Seq_trie.mem_at index c ~pos:0 ~len:2))
        && Seq_trie.mem_at index c ~pos:0 ~len:1
        && Seq_trie.mem_at index c ~pos:1 ~len:1
      then out := c :: !out
    done
  done;
  !out

let candidates_larger index alphabet ~size =
  let k = Alphabet.size alphabet in
  let full = Array.make size 0 in
  let out = ref [] in
  Seq_trie.iter_slice index ~depth:(size - 1) (fun prefix _count ->
      Array.blit prefix 0 full 0 (size - 1);
      for c = 0 to k - 1 do
        full.(size - 1) <- c;
        if
          (not (Seq_trie.mem_at index full ~pos:0 ~len:size))
          && Seq_trie.mem_at index full ~pos:1 ~len:(size - 1)
        then out := Array.copy full :: !out
      done);
  !out

let candidates index alphabet ~size ~rare_threshold =
  assert (size >= 2 && size <= Seq_trie.max_len index);
  let raw =
    if size = 2 then candidates_size2 index alphabet
    else candidates_larger index alphabet ~size
  in
  let scored =
    List.map
      (fun c -> (rare_twogram_count index ~threshold:rare_threshold c, c))
      raw
  in
  let compare_candidates (r1, c1) (r2, c2) =
    match compare r2 r1 with 0 -> compare c1 c2 | d -> d
  in
  List.stable_sort compare_candidates scored |> List.map snd

let find index alphabet ~size ~rare_threshold =
  match candidates index alphabet ~size ~rare_threshold with
  | c :: _ -> Ok c
  | [] ->
      Error
        (Printf.sprintf
           "no minimal foreign sequence of size %d exists in this training \
            data; a longer training stream (or a different deviation rate) \
            is needed"
           size)
