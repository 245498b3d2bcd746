(* The supervision layer's promises: faults stay in their own slot,
   transient faults are retried to full recovery, fatal faults degrade
   only their own cells, and a chaos-recovered run is byte-identical
   to an undisturbed one. *)

open Seqdiv_synth
open Seqdiv_core
open Seqdiv_detectors
open Seqdiv_report
open Seqdiv_util
open Seqdiv_test_support

(* --- Pool.map_result isolation ----------------------------------------- *)

exception Boom of int

let should_fail x = x mod 3 = 0
let f x = if should_fail x then raise (Boom x) else (x * x) + 1

let map_result_isolates =
  qcheck ~count:200 "map_result: order kept, every fault in its own slot"
    QCheck.(pair (list small_int) (oneofl [ 1; 4 ]))
    (fun (l, jobs) ->
      let pool = Pool.create ~jobs () in
      let results = Pool.map_result pool f l in
      List.length results = List.length l
      && List.for_all2
           (fun i (x, r) ->
             match r with
             | Ok v -> (not (should_fail x)) && v = (x * x) + 1
             | Error { Pool.index; exn; _ } ->
                 should_fail x && index = i && exn = Boom x)
           (List.mapi (fun i _ -> i) l)
           (List.combine l results))

let test_map2_mismatch_runs_nothing () =
  (* The length guard fires before any task starts: the closure must
     never observe a call, at any jobs count. *)
  let ran = ref 0 in
  List.iter
    (fun jobs ->
      let pool = Pool.create ~jobs () in
      (match Pool.map2 pool (fun a b -> incr ran; a + b) [ 1; 2; 3 ] [ 1 ] with
      | _ -> Alcotest.fail "expected Invalid_argument"
      | exception Invalid_argument _ -> ());
      Alcotest.(check int) "no task executed" 0 !ran)
    [ 1; 4 ]

(* Two raise sites on different source lines, so their backtraces are
   distinguishable. *)
let first_failure () = raise (Boom 1)
let second_failure () = raise (Boom 2)

let backtrace_task x =
  if x = 1 then first_failure () else if x = 2 then second_failure () else x

let first_line s =
  match String.index_opt s '\n' with
  | Some i -> String.sub s 0 i
  | None -> s

let test_same_chunk_failures_keep_own_backtraces () =
  (* Both failures land in the same worker chunk (chunk = input
     length): catching the second must not clobber the backtrace
     recorded for the first. *)
  Printexc.record_backtrace true;
  List.iter
    (fun jobs ->
      let pool = Pool.create ~chunk:4 ~jobs () in
      match Pool.map_result pool backtrace_task [ 0; 1; 2; 3 ] with
      | [ Ok 0; Error e1; Error e2; Ok 3 ] ->
          Alcotest.(check bool)
            (Printf.sprintf "jobs=%d: own exceptions" jobs)
            true
            (e1.Pool.exn = Boom 1 && e2.Pool.exn = Boom 2);
          let b1 = Printexc.raw_backtrace_to_string e1.Pool.backtrace in
          let b2 = Printexc.raw_backtrace_to_string e2.Pool.backtrace in
          Alcotest.(check bool)
            (Printf.sprintf "jobs=%d: backtraces recorded" jobs)
            true
            (String.length b1 > 0 && String.length b2 > 0);
          Alcotest.(check bool)
            (Printf.sprintf "jobs=%d: each failure keeps its own raise site"
               jobs)
            true
            (first_line b1 <> first_line b2)
      | _ -> Alcotest.fail "unexpected result shape")
    [ 1; 2 ]

let test_map_reraises_lowest_index_backtrace () =
  (* Pool.map re-raises the lowest-index failure; the backtrace the
     caller observes must be that slot's own, not the last one the
     worker happened to catch. *)
  Printexc.record_backtrace true;
  let input = [ 0; 1; 2; 3 ] in
  List.iter
    (fun jobs ->
      let pool = Pool.create ~chunk:4 ~jobs () in
      let recorded =
        match Pool.map_result pool backtrace_task input with
        | [ _; Error e; _; _ ] -> Printexc.raw_backtrace_to_string e.Pool.backtrace
        | _ -> Alcotest.fail "unexpected result shape"
      in
      match Pool.map pool backtrace_task input with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom n ->
          Alcotest.(check int)
            (Printf.sprintf "jobs=%d: lowest-index failure re-raised" jobs)
            1 n;
          (* Unwinding appends "Called from" frames but preserves the
             raise site at the head. *)
          Alcotest.(check string)
            (Printf.sprintf "jobs=%d: original raise site survives" jobs)
            (first_line recorded)
            (first_line (Printexc.get_backtrace ())))
    [ 1; 2 ]

(* --- Fault_plan determinism -------------------------------------------- *)

let plan_is_stateless =
  qcheck ~count:500 "Fault_plan.decide is a pure function of its inputs"
    QCheck.(triple small_int int (int_range 0 3))
    (fun (seed, key, attempt) ->
      let plan =
        Fault_plan.of_seed ~transient_rate:0.3 ~fatal_rate:0.1 ~seed ()
      in
      let key = Int64.of_int key in
      Fault_plan.decide plan ~key ~attempt
      = Fault_plan.decide plan ~key ~attempt)

let test_plan_rates_validated () =
  List.iter
    (fun (t, f) ->
      match Fault_plan.of_seed ~transient_rate:t ~fatal_rate:f ~seed:1 () with
      | _ -> Alcotest.failf "rates (%g, %g) should be rejected" t f
      | exception Invalid_argument _ -> ())
    [ (-0.1, 0.0); (1.5, 0.0); (0.0, -1.0); (0.8, 0.4) ]

let test_plan_sticky_transients_clear () =
  (* A transient-fated key fails its first [sticky] attempts and then
     succeeds forever. *)
  let plan =
    Fault_plan.of_seed ~transient_rate:1.0 ~fatal_rate:0.0 ~sticky:2 ~seed:3 ()
  in
  let key = 42L in
  Alcotest.(check bool) "attempt 0 faulted" true
    (Fault_plan.decide plan ~key ~attempt:0 = Some Fault.Transient);
  Alcotest.(check bool) "attempt 1 faulted" true
    (Fault_plan.decide plan ~key ~attempt:1 = Some Fault.Transient);
  Alcotest.(check bool) "attempt 2 clear" true
    (Fault_plan.decide plan ~key ~attempt:2 = None)

(* --- chaos over the full grid ------------------------------------------ *)

let grid_suite_cache = ref None

let grid_suite () =
  (* The paper's full 8 x 14 grid, scaled lengths. *)
  match !grid_suite_cache with
  | Some suite -> suite
  | None ->
      let suite =
        Suite.build (Suite.scaled_params ~train_len:60_000 ~background_len:3_000)
      in
      grid_suite_cache := Some suite;
      suite

let grid_detectors () =
  List.map Registry.find_exn [ "stide"; "tstide"; "markov"; "lnb" ]

let renderings maps =
  String.concat "\n" (List.map Ascii_map.render maps)

let baseline_cache = ref None

let baseline_maps () =
  match !baseline_cache with
  | Some maps -> maps
  | None ->
      let maps =
        Experiment.all_maps
          ~engine:(Engine.create ~jobs:1 ())
          (grid_suite ()) (grid_detectors ())
      in
      baseline_cache := Some maps;
      maps

let test_transient_chaos_full_recovery () =
  (* >= 5% transient faults into every train/score task of the full
     grid: the default retry budget absorbs every one, no cell fails,
     and the rendered maps are byte-identical to the fault-free run. *)
  let fresh = renderings (baseline_maps ()) in
  List.iter
    (fun jobs ->
      let plan = Fault_plan.of_seed ~transient_rate:0.05 ~seed:7 () in
      let e = Engine.create ~jobs ~fault_plan:plan () in
      let maps = Experiment.all_maps ~engine:e (grid_suite ()) (grid_detectors ()) in
      let s = Engine.stats e in
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d: faults actually fired" jobs)
        true
        (s.Engine.faults_injected > 0);
      Alcotest.(check int)
        (Printf.sprintf "jobs=%d: every fault retried" jobs)
        s.Engine.faults_injected s.Engine.retries;
      Alcotest.(check int)
        (Printf.sprintf "jobs=%d: zero failed cells" jobs)
        0 s.Engine.cells_failed;
      Alcotest.(check string)
        (Printf.sprintf "jobs=%d: byte-identical to fault-free run" jobs)
        fresh (renderings maps))
    [ 1; 4 ]

let test_fatal_chaos_degrades_only_faulted_cells () =
  (* Fatal faults are never retried: the fated cells come back Failed
     (attempts = 1), every other cell is byte-identical to the
     fault-free run. *)
  let plan = Fault_plan.of_seed ~transient_rate:0.0 ~fatal_rate:0.08 ~seed:11 () in
  let e = Engine.create ~jobs:4 ~fault_plan:plan () in
  let maps = Experiment.all_maps ~engine:e (grid_suite ()) (grid_detectors ()) in
  let s = Engine.stats e in
  Alcotest.(check bool) "some cells failed" true (s.Engine.cells_failed > 0);
  Alcotest.(check int) "fatal faults never retried" 0 s.Engine.retries;
  let failed = ref 0 in
  List.iter2
    (fun chaos_map fresh_map ->
      Performance_map.fold chaos_map ~init:() ~f:(fun () ~anomaly_size ~window o ->
          match o with
          | Outcome.Failed fault ->
              incr failed;
              Alcotest.(check string) "failure is the injected fatal" "fatal"
                (Fault.severity_to_string fault.Fault.severity);
              Alcotest.(check int) "single attempt" 1 fault.Fault.attempts
          | o ->
              Alcotest.(check bool)
                (Printf.sprintf "cell (%d, %d) matches fault-free run"
                   anomaly_size window)
                true
                (Outcome.equal o
                   (Performance_map.outcome fresh_map ~anomaly_size ~window))))
    maps (baseline_maps ());
  Alcotest.(check int) "stats agree with the maps" s.Engine.cells_failed !failed

let test_sticky_past_budget_exhausts () =
  (* sticky > retries: the transient keeps recurring until the budget
     runs out, and the cell fails carrying the full attempt count. *)
  let retries = 2 in
  let plan = Fault_plan.of_seed ~transient_rate:0.08 ~sticky:5 ~seed:13 () in
  let e = Engine.create ~jobs:4 ~retries ~fault_plan:plan () in
  let maps = Experiment.all_maps ~engine:e (grid_suite ()) (grid_detectors ()) in
  let s = Engine.stats e in
  Alcotest.(check bool) "some cells failed" true (s.Engine.cells_failed > 0);
  List.iter
    (fun m ->
      Performance_map.fold m ~init:() ~f:(fun () ~anomaly_size:_ ~window:_ o ->
          match o with
          | Outcome.Failed fault ->
              Alcotest.(check string) "exhausted transient" "transient"
                (Fault.severity_to_string fault.Fault.severity);
              Alcotest.(check int) "budget fully consumed" (retries + 1)
                fault.Fault.attempts
          | _ -> ()))
    maps

let test_chaos_identical_across_jobs () =
  (* The same plan injects the same faults regardless of scheduling:
     degraded runs are byte-identical across jobs counts too. *)
  let run jobs =
    let plan = Fault_plan.of_seed ~transient_rate:0.0 ~fatal_rate:0.08 ~seed:11 () in
    let e = Engine.create ~jobs ~fault_plan:plan () in
    renderings (Experiment.all_maps ~engine:e (grid_suite ()) (grid_detectors ()))
  in
  Alcotest.(check string) "jobs=1 = jobs=4 under fatal chaos" (run 1) (run 4)

let test_hang_fates_counted_as_injected () =
  (* A hang fate ends as a deadline timeout, not as [Fault.Injected],
     yet it is the plan's doing and counts as injected.  Hangs are never
     retried, so each fated task runs once: a hung score task fails its
     one cell and a hung train task every cell of its window. *)
  let plan = Fault_plan.of_seed ~transient_rate:0.0 ~hang_rate:0.1 ~seed:23 () in
  let clock = Fake_clock.create ~step_ms:1.0 in
  let deadline = Deadline.spec ~clock:(Fake_clock.clock clock) ~budget_ms:200 in
  let e = Engine.create ~jobs:1 ~fault_plan:plan ~deadline () in
  ignore (Experiment.all_maps ~engine:e (tiny_suite ()) (grid_detectors ()));
  let s = Engine.stats e in
  Alcotest.(check bool) "hangs fired" true (s.Engine.cells_timed_out > 0);
  Alcotest.(check int) "every failure a timeout" s.Engine.cells_failed
    s.Engine.cells_timed_out;
  Alcotest.(check int) "hangs never retried" 0 s.Engine.retries;
  Alcotest.(check bool) "hangs counted as injected" true
    (s.Engine.faults_injected > 0
    && s.Engine.faults_injected <= s.Engine.cells_timed_out)

let test_failed_cells_render_distinctly () =
  let plan = Fault_plan.of_seed ~transient_rate:0.0 ~fatal_rate:0.08 ~seed:11 () in
  let e = Engine.create ~jobs:1 ~fault_plan:plan () in
  let maps = Experiment.all_maps ~engine:e (grid_suite ()) (grid_detectors ()) in
  let degraded = List.find (fun m -> Performance_map.failed_cells m <> []) maps in
  let txt = Ascii_map.render degraded in
  Alcotest.(check bool) "'!' glyph present" true (String.contains txt '!');
  Alcotest.(check bool) "failure footer present" true
    (let needle = "FAILED" in
     let n = String.length txt and k = String.length needle in
     let rec at i = i + k <= n && (String.sub txt i k = needle || at (i + 1)) in
     at 0);
  let summary = Experiment.summary degraded in
  Alcotest.(check int) "summary counts the failures"
    (List.length (Performance_map.failed_cells degraded))
    summary.Experiment.failed

let () =
  Alcotest.run "supervision"
    [
      ( "pool",
        [
          map_result_isolates;
          Alcotest.test_case "map2 mismatch runs nothing" `Quick
            test_map2_mismatch_runs_nothing;
          Alcotest.test_case "same-chunk failures keep own backtraces" `Quick
            test_same_chunk_failures_keep_own_backtraces;
          Alcotest.test_case "map re-raises lowest-index backtrace" `Quick
            test_map_reraises_lowest_index_backtrace;
        ] );
      ( "fault-plan",
        [
          plan_is_stateless;
          Alcotest.test_case "rates validated" `Quick test_plan_rates_validated;
          Alcotest.test_case "sticky transients clear" `Quick
            test_plan_sticky_transients_clear;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "transient chaos fully recovers" `Slow
            test_transient_chaos_full_recovery;
          Alcotest.test_case "fatal chaos degrades only its cells" `Slow
            test_fatal_chaos_degrades_only_faulted_cells;
          Alcotest.test_case "sticky past budget exhausts" `Slow
            test_sticky_past_budget_exhausts;
          Alcotest.test_case "chaos identical across jobs" `Slow
            test_chaos_identical_across_jobs;
          Alcotest.test_case "failed cells render distinctly" `Slow
            test_failed_cells_render_distinctly;
          Alcotest.test_case "hang fates counted as injected" `Quick
            test_hang_fates_counted_as_injected;
        ] );
    ]
