open Seqdiv_stream
open Seqdiv_synth
open Seqdiv_test_support

let small_index () =
  let suite = small_suite () in
  (suite.Suite.index, suite.Suite.alphabet, suite.Suite.params.Suite.rare_threshold)

let test_verify_too_short () =
  let index, _, _ = small_index () in
  Alcotest.(check bool) "length 1" true (Mfs.verify index [| 0 |] = Mfs.Too_short);
  Alcotest.(check bool) "length 0" true (Mfs.verify index [||] = Mfs.Too_short)

let test_verify_not_foreign () =
  let index, _, _ = small_index () in
  (* The pure cycle 0 1 2 occurs constantly. *)
  match Mfs.verify index [| 0; 1; 2 |] with
  | Mfs.Not_foreign c -> Alcotest.(check bool) "count positive" true (c > 0)
  | _ -> Alcotest.fail "expected Not_foreign"

let test_verify_sub_foreign () =
  let index, _, _ = small_index () in
  (* (0,4) is a structural zero, so [0;4;5] has a foreign proper
     sub-sequence. *)
  match Mfs.verify index [| 0; 4; 5 |] with
  | Mfs.Sub_foreign (pos, len) ->
      Alcotest.(check int) "position" 0 pos;
      Alcotest.(check int) "length" 2 len
  | _ -> Alcotest.fail "expected Sub_foreign"

let test_candidates_size2_are_structural_zeros () =
  let index, alphabet, rare = small_index () in
  let candidates = Mfs.candidates index alphabet ~size:2 ~rare_threshold:rare in
  Alcotest.(check bool) "some exist" true (candidates <> []);
  List.iter
    (fun c ->
      Alcotest.(check int) "size" 2 (Array.length c);
      let diff = (c.(1) - c.(0) + 8) mod 8 in
      if diff >= 1 && diff <= 3 then
        Alcotest.fail "candidate uses an allowed transition")
    candidates

let test_candidates_all_verify () =
  let index, alphabet, rare = small_index () in
  List.iter
    (fun size ->
      let candidates = Mfs.candidates index alphabet ~size ~rare_threshold:rare in
      Alcotest.(check bool)
        (Printf.sprintf "size %d nonempty" size)
        true (candidates <> []);
      List.iter
        (fun c ->
          match Mfs.verify index c with
          | Mfs.Ok_minimal_foreign -> ()
          | v ->
              Alcotest.fail
                (Printf.sprintf "size-%d candidate failed: %s" size
                   (match v with
                   | Mfs.Not_foreign n -> Printf.sprintf "not foreign (%d)" n
                   | Mfs.Sub_foreign (p, l) ->
                       Printf.sprintf "sub foreign (%d,%d)" p l
                   | Mfs.Too_short -> "too short"
                   | Mfs.Ok_minimal_foreign -> assert false)))
        candidates)
    [ 2; 3; 5; 7; 9 ]

let test_candidates_deterministic () =
  let index, alphabet, rare = small_index () in
  let a = Mfs.candidates index alphabet ~size:4 ~rare_threshold:rare in
  let b = Mfs.candidates index alphabet ~size:4 ~rare_threshold:rare in
  Alcotest.(check bool) "same order" true (a = b)

let test_candidates_rare_first () =
  let index, alphabet, rare = small_index () in
  let candidates = Mfs.candidates index alphabet ~size:5 ~rare_threshold:rare in
  let counts =
    List.map (Mfs.rare_twogram_count index ~threshold:rare) candidates
  in
  let rec non_increasing = function
    | a :: (b :: _ as rest) -> a >= b && non_increasing rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "sorted by rare 2-grams" true (non_increasing counts)

let test_find () =
  let index, alphabet, rare = small_index () in
  (match Mfs.find index alphabet ~size:6 ~rare_threshold:rare with
  | Ok c -> Alcotest.(check int) "size" 6 (Array.length c)
  | Error e -> Alcotest.fail e);
  (* A size larger than anything constructible from this training data
     still within the index depth: expect a descriptive error or a valid
     candidate, never an exception. *)
  match Mfs.find index alphabet ~size:10 ~rare_threshold:rare with
  | Ok c -> Alcotest.(check int) "size" 10 (Array.length c)
  | Error e -> Alcotest.(check bool) "message mentions size" true
                 (String.length e > 0)

let test_rare_twogram_count () =
  let index, _, rare = small_index () in
  (* Pure cycle has no rare 2-grams. *)
  Alcotest.(check int) "cycle" 0
    (Mfs.rare_twogram_count index ~threshold:rare [| 0; 1; 2; 3 |]);
  (* A deviation 2-gram is rare. *)
  Alcotest.(check int) "deviation" 1
    (Mfs.rare_twogram_count index ~threshold:rare [| 0; 2 |])

let prop_candidates_are_foreign =
  qcheck ~count:6 "every candidate is absent from training"
    QCheck.(int_range 3 8)
    (fun size ->
      let index, alphabet, rare = small_index () in
      Mfs.candidates index alphabet ~size ~rare_threshold:rare
      |> List.for_all (fun c ->
             not (Seq_trie.mem_at index c ~pos:0 ~len:(Array.length c))))

(* A candidate holding a symbol the training data never contains is not
   minimal: its single-symbol sub-sequence is foreign. *)
let test_verify_absent_symbol () =
  let index = Seq_trie.of_trace ~max_len:4 (trace8 [ 0; 1; 2; 0; 1; 2; 3; 0; 1 ]) in
  match Mfs.verify index [| 7; 0 |] with
  | Mfs.Sub_foreign (pos, len) ->
      Alcotest.(check int) "position" 0 pos;
      Alcotest.(check int) "length" 1 len
  | _ -> Alcotest.fail "expected Sub_foreign"

(* Brute-force reference: the candidate never occurs, and every proper
   contiguous sub-sequence, single symbols included, does.  Candidates
   may use symbol 4, which the training traces never contain. *)
let brute_minimal_foreign trace candidate =
  let occurs sub =
    let n = Trace.length trace and m = Array.length sub in
    let rec at pos =
      if pos + m > n then false
      else if Array.sub (Trace.raw trace) pos m = sub then true
      else at (pos + 1)
    in
    at 0
  in
  let n = Array.length candidate in
  n >= 2
  && (not (occurs candidate))
  && (let ok = ref true in
      for len = 1 to n - 1 do
        for pos = 0 to n - len do
          if not (occurs (Array.sub candidate pos len)) then ok := false
        done
      done;
      !ok)

let prop_verify_matches_brute_force =
  qcheck ~count:300 "verify matches brute force"
    QCheck.(
      pair
        (list_of_size Gen.(8 -- 40) (int_bound 3))
        (list_of_size Gen.(2 -- 4) (int_bound 4)))
    (fun (trace_syms, cand) ->
      let trace = trace8 trace_syms in
      let index = Seq_trie.of_trace ~max_len:5 trace in
      let candidate = Array.of_list cand in
      (Mfs.verify index candidate = Mfs.Ok_minimal_foreign)
      = brute_minimal_foreign trace candidate)

let () =
  Alcotest.run "mfs"
    [
      ( "mfs",
        [
          Alcotest.test_case "too short" `Quick test_verify_too_short;
          Alcotest.test_case "not foreign" `Quick test_verify_not_foreign;
          Alcotest.test_case "sub foreign" `Quick test_verify_sub_foreign;
          Alcotest.test_case "size-2 structural zeros" `Quick
            test_candidates_size2_are_structural_zeros;
          Alcotest.test_case "all verify" `Quick test_candidates_all_verify;
          Alcotest.test_case "deterministic" `Quick test_candidates_deterministic;
          Alcotest.test_case "rare first" `Quick test_candidates_rare_first;
          Alcotest.test_case "find" `Quick test_find;
          Alcotest.test_case "rare 2-gram count" `Quick test_rare_twogram_count;
          prop_candidates_are_foreign;
          Alcotest.test_case "absent symbol is sub-foreign" `Quick
            test_verify_absent_symbol;
          prop_verify_matches_brute_force;
        ] );
    ]
