(* The engine's two load-bearing promises: results are byte-identical
   at every jobs count, and the model cache trains each
   (detector, window, training-trace) triple exactly once. *)

open Seqdiv_stream
open Seqdiv_synth
open Seqdiv_core
open Seqdiv_detectors
open Seqdiv_util
open Seqdiv_test_support

(* --- pool -------------------------------------------------------------- *)

let square x = (x * x) + 1

let pool_map_matches_list_map =
  qcheck ~count:200 "Pool.map = List.map at any jobs/chunk"
    QCheck.(pair (list small_int) (int_range 1 4))
    (fun (l, jobs) ->
      let pool = Pool.create ~jobs in
      Pool.map pool square l = List.map square l)

let pool_map2_matches_list_map2 =
  qcheck ~count:200 "Pool.map2 = List.map2"
    QCheck.(pair (list small_int) (int_range 1 4))
    (fun (l, jobs) ->
      let pool = Pool.create ~jobs in
      let r = List.map (fun x -> x + 7) l in
      Pool.map2 pool (fun a b -> a * b) l r = List.map2 (fun a b -> a * b) l r)

exception Boom

let test_pool_propagates_exception () =
  let pool = Pool.create ~jobs:4 in
  match Pool.map pool (fun x -> if x = 3 then raise Boom else x) [ 1; 2; 3; 4 ] with
  | _ -> Alcotest.fail "expected Boom to propagate"
  | exception Boom -> ()

let test_pool_map2_length_mismatch () =
  let pool = Pool.create ~jobs:2 in
  match Pool.map2 pool ( + ) [ 1; 2 ] [ 1 ] with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* --- serial/parallel equivalence --------------------------------------- *)

(* Small per-seed suites, cached so qcheck repeats are free. *)
let suite_cache = Hashtbl.create 4

let suite_for seed =
  match Hashtbl.find_opt suite_cache seed with
  | Some suite -> suite
  | None ->
      let params =
        {
          (Suite.scaled_params ~train_len:30_000 ~background_len:1_500) with
          Suite.dw_max = 6;
          seed;
        }
      in
      let suite = Suite.build params in
      Hashtbl.add suite_cache seed suite;
      suite

let cells m =
  List.rev
    (Performance_map.fold m ~init:[] ~f:(fun acc ~anomaly_size ~window o ->
         (anomaly_size, window, o) :: acc))

let maps_equal a b =
  Performance_map.detector a = Performance_map.detector b
  &&
  let ca = cells a and cb = cells b in
  List.length ca = List.length cb
  && List.for_all2
       (fun (s1, w1, o1) (s2, w2, o2) ->
         s1 = s2 && w1 = w2 && Outcome.equal o1 o2)
       ca cb

let all_maps_with ~jobs suite detectors =
  Experiment.all_maps ~engine:(Engine.create ~jobs ()) suite detectors

let serial_equals_parallel =
  (* The deterministic-metric detectors over several random suites; the
     PRNG-seeded ones are covered by the unit test below. *)
  let detectors =
    List.map Registry.find_exn [ "stide"; "tstide"; "markov"; "lnb" ]
  in
  qcheck ~count:6 "all_maps: jobs=1 = jobs=4 on random suites"
    (QCheck.oneofl [ 3; 11; 2005 ])
    (fun seed ->
      let suite = suite_for seed in
      List.for_all2 maps_equal
        (all_maps_with ~jobs:1 suite detectors)
        (all_maps_with ~jobs:4 suite detectors))

let test_all_detectors_parallel_equal () =
  (* Every paper detector, including the PRNG-seeded neural network:
     one full plan serial vs parallel, compared cell by cell. *)
  let suite = suite_for 3 in
  List.iter2
    (fun a b ->
      Alcotest.(check bool)
        (Printf.sprintf "identical map for %s" (Performance_map.detector a))
        true (maps_equal a b))
    (all_maps_with ~jobs:1 suite Registry.all)
    (all_maps_with ~jobs:4 suite Registry.all)

(* --- model cache ------------------------------------------------------- *)

(* A detector whose training is observable: every [train] call records
   its window, and scoring is all-zero (so every cell is Blind). *)
let train_calls = ref []

module Counting = struct
  type model = int

  let name = "counting"
  let maximal_epsilon = 0.0

  let train ~window _trace =
    train_calls := window :: !train_calls;
    window

  let train_of_trie = None
  let compile = None
  let window m = m

  let score_range m trace ~lo ~hi =
    let lo, hi =
      Detector.clamp_range ~trace_len:(Trace.length trace) ~window:m ~lo ~hi
    in
    let items =
      if hi < lo then [||]
      else
        Array.init
          (hi - lo + 1)
          (fun i -> { Response.start = lo + i; cover = m; score = 0.0 })
    in
    Response.make ~detector:name ~window:m items

  let score m trace =
    let lo, hi = Detector.full_range ~trace_len:(Trace.length trace) ~window:m in
    score_range m trace ~lo ~hi
end

let test_cache_trains_each_window_once () =
  let suite = suite_for 3 in
  let windows = Suite.windows suite in
  let d = (module Counting : Detector.S) in
  train_calls := [];
  let e = Engine.create () in
  let m1 = Engine.performance_map e suite d in
  Alcotest.(check int) "first map: one train per window"
    (List.length windows) (List.length !train_calls);
  Alcotest.(check (list int)) "each window trained exactly once"
    (List.sort compare windows)
    (List.sort compare !train_calls);
  let injection ~anomaly_size ~window =
    (Suite.stream suite ~anomaly_size ~window).Suite.injection
  in
  let m2 = Engine.performance_map_over e suite ~injection d in
  Alcotest.(check int) "second map: every model from the cache"
    (List.length windows) (List.length !train_calls);
  Alcotest.(check bool) "both maps agree" true (maps_equal m1 m2);
  let s = Engine.stats e in
  Alcotest.(check int) "stats: trained" (List.length windows)
    s.Engine.train_executed;
  Alcotest.(check int) "stats: cache hits" (List.length windows)
    s.Engine.train_cached;
  Alcotest.(check int) "stats: score tasks"
    (2 * Performance_map.cell_count m1)
    s.Engine.score_tasks

let test_shared_trie_cache () =
  (* One training trace, three trie-capable detectors, every window:
     the engine builds exactly one trie and serves every other model as
     a view of it. *)
  let suite = suite_for 3 in
  let windows = Suite.windows suite in
  let detectors = List.map Registry.find_exn [ "stide"; "tstide"; "markov" ] in
  let e = Engine.create () in
  let maps = Experiment.all_maps ~engine:e suite detectors in
  let capable = 3 * List.length windows in
  let s = Engine.stats e in
  Alcotest.(check int) "one shared trie for the training trace" 1
    s.Engine.tries_built;
  Alcotest.(check int) "every other trie-backed model is a view"
    (capable - 1) s.Engine.trie_hits;
  Alcotest.(check bool) "trie node count surfaced" true
    (s.Engine.trie_nodes > 0);
  (* A second identical run answers from the model cache: no new tries,
     no new views, identical maps. *)
  let maps' = Experiment.all_maps ~engine:e suite detectors in
  let s' = Engine.stats e in
  Alcotest.(check int) "still one trie" 1 s'.Engine.tries_built;
  Alcotest.(check int) "no further trie activity" (capable - 1)
    s'.Engine.trie_hits;
  List.iter2
    (fun a b ->
      Alcotest.(check bool)
        (Printf.sprintf "identical map for %s" (Performance_map.detector a))
        true (maps_equal a b))
    maps maps'

let test_train_batch_dedups_specs () =
  let suite = suite_for 3 in
  let d = (module Counting : Detector.S) in
  train_calls := [];
  let e = Engine.create () in
  let spec = (d, 4, suite.Suite.training) in
  (match Engine.train_batch e [ spec; spec; spec ] with
  | [ a; b; c ] ->
      Alcotest.(check bool) "same model answered" true (a == b && b == c)
  | _ -> Alcotest.fail "expected three results");
  Alcotest.(check int) "one training for three identical specs" 1
    (List.length !train_calls)

let () =
  Alcotest.run "engine"
    [
      ( "pool",
        [
          pool_map_matches_list_map;
          pool_map2_matches_list_map2;
          Alcotest.test_case "exception propagates" `Quick
            test_pool_propagates_exception;
          Alcotest.test_case "map2 length mismatch" `Quick
            test_pool_map2_length_mismatch;
        ] );
      ( "determinism",
        [
          serial_equals_parallel;
          Alcotest.test_case "all detectors, serial = parallel" `Slow
            test_all_detectors_parallel_equal;
        ] );
      ( "cache",
        [
          Alcotest.test_case "trains each window once" `Quick
            test_cache_trains_each_window_once;
          Alcotest.test_case "shared trie built once" `Quick
            test_shared_trie_cache;
          Alcotest.test_case "train_batch dedups" `Quick
            test_train_batch_dedups_specs;
        ] );
    ]
