open Seqdiv_util
open Seqdiv_stream
open Seqdiv_synth
open Seqdiv_test_support

let test_training_length () =
  let chain = training_chain () in
  let t = Generator.training chain (Prng.create ~seed:1) ~len:5_000 in
  Alcotest.(check int) "length" 5_000 (Trace.length t);
  Alcotest.(check int) "starts at 0" 0 (Trace.get t 0)

let test_background_pure_cycle () =
  let bg = Generator.background alphabet8 ~len:1_000 ~phase:3 in
  Alcotest.(check int) "first" 3 (Trace.get bg 0);
  for i = 0 to Trace.length bg - 2 do
    if Trace.get bg (i + 1) <> (Trace.get bg i + 1) mod 8 then
      Alcotest.fail "background deviates from cycle"
  done

let test_background_contains_no_anomalies () =
  (* Every window of the background, at any width, appears in any
     reasonably-sized training stream — the "clean" property of
     Section 5.4.1. *)
  let chain = training_chain () in
  let training = Generator.training chain (Prng.create ~seed:2) ~len:30_000 in
  let index = Seq_trie.of_trace ~max_len:15 training in
  let bg = Generator.background alphabet8 ~len:500 ~phase:0 in
  List.iter
    (fun width ->
      Trace.iter_windows bg ~width (fun pos ->
          if not (Seq_trie.mem_at index (Trace.raw bg) ~pos ~len:width) then
            Alcotest.fail
              (Printf.sprintf "foreign background window at %d width %d" pos
                 width)))
    [ 2; 5; 10; 15 ]

let test_cycle_fraction_of_pure_cycle () =
  let bg = Generator.background alphabet8 ~len:100 ~phase:0 in
  check_float "pure cycle" ~epsilon:0.0 1.0 (Generator.cycle_fraction bg)

let test_cycle_fraction_short () =
  check_float "single element" ~epsilon:0.0 1.0
    (Generator.cycle_fraction (trace8 [ 4 ]))

let test_cycle_fraction_counts () =
  (* 0 1 2 4: two cycle steps out of three transitions. *)
  check_float "2/3" ~epsilon:1e-9 (2.0 /. 3.0)
    (Generator.cycle_fraction (trace8 [ 0; 1; 2; 4 ]))

let test_training_98_percent () =
  let chain = training_chain () in
  let t = Generator.training chain (Prng.create ~seed:3) ~len:200_000 in
  let frac = Generator.cycle_fraction t in
  Alcotest.(check bool)
    (Printf.sprintf "mostly cycle (%.4f)" frac)
    true
    (frac > 0.99 && frac < 1.0)

let prop_background_phase =
  qcheck "background symbol i = (phase + i) mod k"
    QCheck.(pair (int_bound 7) (int_range 1 200))
    (fun (phase, len) ->
      let bg = Generator.background alphabet8 ~len ~phase in
      let ok = ref true in
      for i = 0 to len - 1 do
        if Trace.get bg i <> (phase + i) mod 8 then ok := false
      done;
      !ok)

let () =
  Alcotest.run "generator"
    [
      ( "generator",
        [
          Alcotest.test_case "training length" `Quick test_training_length;
          Alcotest.test_case "background cycle" `Quick test_background_pure_cycle;
          Alcotest.test_case "background clean" `Quick test_background_contains_no_anomalies;
          Alcotest.test_case "cycle fraction pure" `Quick test_cycle_fraction_of_pure_cycle;
          Alcotest.test_case "cycle fraction short" `Quick test_cycle_fraction_short;
          Alcotest.test_case "cycle fraction counts" `Quick test_cycle_fraction_counts;
          Alcotest.test_case "98 percent property" `Quick test_training_98_percent;
          prop_background_phase;
        ] );
    ]
