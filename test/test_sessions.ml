open Seqdiv_stream
open Seqdiv_util
open Seqdiv_test_support

let sessions_of lists = Sessions.of_traces (List.map trace8 lists)

let test_of_traces_basics () =
  let s = sessions_of [ [ 0; 1; 2 ]; [ 3; 4 ] ] in
  Alcotest.(check int) "count" 2 (Sessions.count s);
  Alcotest.(check int) "total length" 5 (Sessions.total_length s);
  Alcotest.(check int) "alphabet" 8 (Alphabet.size (Sessions.alphabet s))

let test_of_traces_empty_rejected () =
  Alcotest.check_raises "empty"
    (Invalid_argument "Sessions.of_traces: empty corpus") (fun () ->
      ignore (Sessions.of_traces []))

let test_of_traces_alphabet_mismatch () =
  let a = trace8 [ 0; 1 ] in
  let b = Trace.of_list (Alphabet.make 4) [ 0; 1 ] in
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Sessions.of_traces: mismatched alphabets") (fun () ->
      ignore (Sessions.of_traces [ a; b ]))

let test_windows_do_not_span_boundaries () =
  (* Two sessions [0;1] and [2;3]: the 2-gram (1,2) must NOT appear. *)
  let s = sessions_of [ [ 0; 1 ]; [ 2; 3 ] ] in
  let db = Seq_trie.of_traces ~max_len:2 (Sessions.traces s) in
  let mem w = Seq_trie.mem_at db w ~pos:0 ~len:2 in
  Alcotest.(check bool) "01 present" true (mem [| 0; 1 |]);
  Alcotest.(check bool) "23 present" true (mem [| 2; 3 |]);
  Alcotest.(check bool) "boundary 12 absent" false (mem [| 1; 2 |])

let test_window_count_excludes_boundaries () =
  let s = sessions_of [ [ 0; 1; 2 ]; [ 3; 4; 5 ] ] in
  (* Each session has 2 two-windows; the concatenation would have 5. *)
  Alcotest.(check int) "per-session windows" 4 (Sessions.window_count s ~width:2);
  let db = Seq_trie.of_traces ~max_len:2 (Sessions.traces s) in
  Alcotest.(check int) "db total matches" 4 (Seq_trie.total db 2)

let test_short_sessions_yield_no_windows () =
  let s = sessions_of [ [ 0 ]; [ 1; 2; 3 ] ] in
  Alcotest.(check int) "only long session contributes" 2
    (Sessions.window_count s ~width:2)

let test_split_exact () =
  let s = Sessions.split (trace8 [ 0; 1; 2; 3; 4; 5 ]) ~session_length:3 in
  Alcotest.(check int) "two sessions" 2 (Sessions.count s);
  List.iter
    (fun tr -> Alcotest.(check int) "length 3" 3 (Trace.length tr))
    (Sessions.traces s)

let test_split_remnant_kept () =
  (* 9 = 4 + 4 + 1; the remnant 1 < 4/2 is dropped. *)
  let s =
    Sessions.split (trace8 [ 0; 1; 2; 3; 4; 5; 6; 7; 0 ]) ~session_length:4
  in
  Alcotest.(check int) "remnant dropped" 2 (Sessions.count s);
  (* 10 = 4 + 4 + 2; the remnant 2 >= 4/2 is kept. *)
  let s2 =
    Sessions.split (trace8 [ 0; 1; 2; 3; 4; 5; 6; 7; 0; 1 ]) ~session_length:4
  in
  Alcotest.(check int) "remnant kept" 3 (Sessions.count s2);
  Alcotest.(check int) "total preserved" 10 (Sessions.total_length s2)

let test_generate () =
  let chain = training_chain () in
  let rng = Prng.create ~seed:4 in
  let s =
    Sessions.generate
      (fun rng i ->
        Seqdiv_synth.Markov_chain.generate chain rng ~start:(i mod 8) ~len:50)
      rng ~sessions:5 ~length:50
  in
  Alcotest.(check int) "five sessions" 5 (Sessions.count s);
  Alcotest.(check int) "250 elements" 250 (Sessions.total_length s)

let test_stide_trained_on_sessions () =
  (* Stide trained via Seq_trie.of_traces flags a cross-boundary window
     as foreign even when both halves are familiar. *)
  let sessions = sessions_of [ [ 0; 1; 2; 3 ]; [ 4; 5; 6; 7 ] ] in
  let db = Seq_trie.of_traces ~max_len:2 (Sessions.traces sessions) in
  let stide = Seqdiv_detectors.Stide.of_trie db ~window:2 in
  let r = Seqdiv_detectors.Stide.score stide (trace8 [ 3; 4 ]) in
  Alcotest.(check (float 0.0)) "cross-boundary window foreign" 1.0
    (Seqdiv_detectors.Response.max_score r)

let prop_total_windows =
  qcheck "window_count = sum of per-session counts"
    QCheck.(
      pair (int_range 1 5)
        (small_list (list_of_size Gen.(1 -- 20) (int_bound 7))))
    (fun (width, lists) ->
      QCheck.assume (lists <> []);
      let s = sessions_of lists in
      Sessions.window_count s ~width
      = List.fold_left
          (fun acc l -> acc + Stdlib.max 0 (List.length l - width + 1))
          0 lists)

let () =
  Alcotest.run "sessions"
    [
      ( "sessions",
        [
          Alcotest.test_case "basics" `Quick test_of_traces_basics;
          Alcotest.test_case "empty rejected" `Quick test_of_traces_empty_rejected;
          Alcotest.test_case "alphabet mismatch" `Quick test_of_traces_alphabet_mismatch;
          Alcotest.test_case "no boundary spanning" `Quick
            test_windows_do_not_span_boundaries;
          Alcotest.test_case "window count" `Quick test_window_count_excludes_boundaries;
          Alcotest.test_case "short sessions" `Quick test_short_sessions_yield_no_windows;
          Alcotest.test_case "split exact" `Quick test_split_exact;
          Alcotest.test_case "split remnant" `Quick test_split_remnant_kept;
          Alcotest.test_case "generate" `Quick test_generate;
          Alcotest.test_case "stide on sessions" `Quick test_stide_trained_on_sessions;
          prop_total_windows;
        ] );
    ]
