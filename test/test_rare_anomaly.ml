open Seqdiv_stream
open Seqdiv_synth
open Seqdiv_core
open Seqdiv_detectors
open Seqdiv_test_support

(* --- Rare_seq candidate construction ------------------------------------ *)

let test_candidates_are_rare_and_present () =
  let suite = tiny_suite () in
  let index = suite.Suite.index in
  let threshold = suite.Suite.params.Suite.rare_threshold in
  List.iter
    (fun size ->
      let candidates = Rare_seq.candidates index ~size ~rare_threshold:threshold in
      Alcotest.(check bool)
        (Printf.sprintf "size %d has candidates" size)
        true (candidates <> []);
      List.iter
        (fun c ->
          let len = Array.length c in
          Alcotest.(check bool) "present" true
            (Seq_trie.mem_at index c ~pos:0 ~len);
          Alcotest.(check bool) "rare" true
            (Seq_trie.is_rare_at index ~threshold c ~pos:0 ~len))
        candidates)
    [ 2; 5; 9 ]

let test_candidates_sorted_rarest_first () =
  let suite = tiny_suite () in
  let index = suite.Suite.index in
  let candidates =
    Rare_seq.candidates index ~size:4
      ~rare_threshold:suite.Suite.params.Suite.rare_threshold
  in
  let freqs =
    List.map
      (fun c ->
        let len = Array.length c in
        float_of_int (Seq_trie.count_at index c ~pos:0 ~len)
        /. float_of_int (Seq_trie.total index len))
      candidates
  in
  let rec non_decreasing = function
    | a :: (b :: _ as rest) -> a <= b && non_decreasing rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "ascending frequency" true (non_decreasing freqs)

let test_find_error_when_no_rare_content () =
  (* A deviation-free chain has no rare sequences at all. *)
  let chain =
    Markov_chain.paper_chain alphabet8 ~deviation:0.0
  in
  let training =
    Generator.training chain (Seqdiv_util.Prng.create ~seed:1) ~len:2_000
  in
  let index = Seq_trie.of_trace ~max_len:6 training in
  match Rare_seq.find index ~size:4 ~rare_threshold:0.005 with
  | Ok _ -> Alcotest.fail "expected no rare sequences"
  | Error message ->
      Alcotest.(check bool) "descriptive" true (String.length message > 0)

(* --- Rare_anomaly experiment -------------------------------------------- *)

let fixture = lazy (
  let suite = tiny_suite () in
  (suite, Rare_anomaly.build suite))

let test_injections_clean () =
  let suite, rare = Lazy.force fixture in
  List.iter
    (fun anomaly_size ->
      List.iter
        (fun window ->
          let inj = Rare_anomaly.injection rare ~anomaly_size ~window in
          Alcotest.(check int) "anomaly length" anomaly_size
            (Array.length inj.Injector.anomaly);
          Alcotest.(check bool)
            (Printf.sprintf "clean at AS=%d DW=%d" anomaly_size window)
            true
            (Injector.clean_boundaries suite.Suite.index inj.Injector.trace
               ~position:inj.Injector.position ~size:anomaly_size
               ~width:window))
        [ 2; 5; 8 ])
    [ 2; 6; 9 ]

let test_stide_blind_to_rare () =
  let suite, rare = Lazy.force fixture in
  let map = Rare_anomaly.performance_map rare suite (Registry.find_exn "stide") in
  Alcotest.(check int) "all cells blind"
    (Performance_map.cell_count map)
    (List.length (Performance_map.blind_cells map))

let test_lnb_blind_to_rare () =
  let suite, rare = Lazy.force fixture in
  let map = Rare_anomaly.performance_map rare suite (Registry.find_exn "lnb") in
  Alcotest.(check int) "all cells blind"
    (Performance_map.cell_count map)
    (List.length (Performance_map.blind_cells map))

let test_markov_capable_on_rare () =
  let suite, rare = Lazy.force fixture in
  let map = Rare_anomaly.performance_map rare suite (Registry.find_exn "markov") in
  Alcotest.(check int) "all cells capable"
    (Performance_map.cell_count map)
    (List.length (Performance_map.capable_cells map))

let test_tstide_capable_on_rare () =
  let suite, rare = Lazy.force fixture in
  let map = Rare_anomaly.performance_map rare suite (Registry.find_exn "tstide") in
  Alcotest.(check int) "all cells capable"
    (Performance_map.cell_count map)
    (List.length (Performance_map.capable_cells map))

let () =
  Alcotest.run "rare_anomaly"
    [
      ( "rare_seq",
        [
          Alcotest.test_case "candidates rare+present" `Quick
            test_candidates_are_rare_and_present;
          Alcotest.test_case "rarest first" `Quick test_candidates_sorted_rarest_first;
          Alcotest.test_case "no rare content" `Quick
            test_find_error_when_no_rare_content;
        ] );
      ( "rare_anomaly",
        [
          Alcotest.test_case "injections clean" `Quick test_injections_clean;
          Alcotest.test_case "stide blind (E2)" `Quick test_stide_blind_to_rare;
          Alcotest.test_case "lnb blind (E2)" `Quick test_lnb_blind_to_rare;
          Alcotest.test_case "markov capable (E2)" `Quick test_markov_capable_on_rare;
          Alcotest.test_case "tstide capable (E2)" `Quick test_tstide_capable_on_rare;
        ] );
    ]
