(* The adaptive-threshold controller and its ensemble policy.

   Three layers under test, each with a crisp statistical contract:

   - the controller: alarms strictly above its threshold, honours
     warmup, moves only when the implied alarm rate strays from the
     budget by more than the hysteresis band, and roundtrips through
     its journal token bit-exactly (resume must be invisible);
   - the budget allocator: emitter rates sum to the system rate
     (union bound), suppressors ride uncharged;
   - the ensemble policy: on the full 112-stream suite, the
     Stide-suppresses-Markov conjunction strictly reduces false
     alarms while every injected anomaly stays detected. *)

open Seqdiv_util
open Seqdiv_synth
open Seqdiv_core
open Seqdiv_detectors
open Seqdiv_test_support

(* --- controller: exact behaviour on atom streams ------------------------

   Atom mixtures make every quantity exact: a stream that is 3.0
   except for a 10.0 every 25th position has tail mass 0.04 above the
   3.0 atom — clearly inside a 0.05 budget's hysteresis band, so the
   0.95-quantile sits at 3.0 unambiguously and the strict [>] alarm
   rule prices the tail at exactly the 10.0 mass.  (Mass {e equal} to
   the budget would put the quantile on a knife's edge between the
   atoms.)  The sketch epsilon is pinned well under the band so rank
   slack cannot cross it. *)

let cfg_atoms =
  Adaptive_threshold.config ~budget:0.05 ~epsilon:0.005 ~warmup:128
    ~refresh:32 ~initial:0.5 ()

let atom_score ~period i = if i mod period = 0 then 10.0 else 3.0

let run_atoms t ~period ~from ~upto =
  for i = from to upto - 1 do
    ignore (Adaptive_threshold.step t (atom_score ~period i))
  done

let test_warmup_honored () =
  let t = Adaptive_threshold.create cfg_atoms in
  run_atoms t ~period:25 ~from:0 ~upto:127;
  check_float "threshold untouched before warmup" ~epsilon:0.0 0.5
    (Adaptive_threshold.threshold t);
  Alcotest.(check int) "no adjustments before warmup" 0
    (Adaptive_threshold.adjustments t)

let test_tracks_atom_quantile () =
  let t = Adaptive_threshold.create cfg_atoms in
  run_atoms t ~period:25 ~from:0 ~upto:4_000;
  (* Tail mass above 3.0 is 0.04, inside the budget's band: the first
     refresh moves to the atom and every later refresh re-prices to
     the same value (bitwise), which does not count as a move. *)
  check_float "threshold at the budget atom" ~epsilon:0.0 3.0
    (Adaptive_threshold.threshold t);
  Alcotest.(check int) "exactly one move" 1
    (Adaptive_threshold.adjustments t);
  (* Post-warmup, only the 10.0 windows are strictly above 3.0. *)
  let windows = Adaptive_threshold.windows t in
  let alarms = Adaptive_threshold.alarms t in
  Alcotest.(check int) "windows counted" 4_000 windows;
  (* Every window alarmed until the first refresh (all scores beat the
     0.5 initial), exactly the 5% atom afterwards. *)
  Alcotest.(check bool)
    (Printf.sprintf "rate settles on the budget (alarms=%d)" alarms)
    true
    (let settled =
       float_of_int (alarms - 128) /. float_of_int (windows - 128)
     in
     settled > 0.03 && settled < 0.07)

let test_hysteresis_band () =
  let t = Adaptive_threshold.create cfg_atoms in
  (* Phase 1: tail mass near budget — one move to 3.0. *)
  run_atoms t ~period:25 ~from:0 ~upto:2_048;
  Alcotest.(check int) "phase 1: one move" 1 (Adaptive_threshold.adjustments t);
  (* Phase 2: the heavy atom's share rises to 20%.  The cumulative
     tail at 3.0 drifts out of the [budget ± 0.25·budget] band, the
     controller re-prices, and the threshold lands on the 10.0 atom —
     after which the strict rule alarms on nothing. *)
  run_atoms t ~period:5 ~from:2_048 ~upto:8_192;
  check_float "phase 2: threshold climbs to the heavy atom" ~epsilon:0.0 10.0
    (Adaptive_threshold.threshold t);
  Alcotest.(check int) "phase 2: exactly one more move" 2
    (Adaptive_threshold.adjustments t)

let test_strictly_above () =
  let t = Adaptive_threshold.create cfg_atoms in
  Alcotest.(check bool) "at the threshold: silent" false
    (Adaptive_threshold.step t 0.5);
  Alcotest.(check bool) "strictly above: alarms" true
    (Adaptive_threshold.step t 0.500001);
  Alcotest.(check bool) "below: silent" false (Adaptive_threshold.step t 0.49);
  Alcotest.(check int) "alarm counter agrees" 1 (Adaptive_threshold.alarms t);
  Alcotest.(check int) "window counter agrees" 3
    (Adaptive_threshold.windows t)

let test_config_rejects () =
  let bad f =
    match f () with
    | (_ : Adaptive_threshold.config) -> Alcotest.fail "invalid config accepted"
    | exception Invalid_argument _ -> ()
  in
  bad (fun () -> Adaptive_threshold.config ~budget:0.0 ~initial:0.5 ());
  bad (fun () -> Adaptive_threshold.config ~budget:1.0 ~initial:0.5 ());
  bad (fun () ->
      Adaptive_threshold.config ~budget:0.1 ~epsilon:0.5 ~initial:0.5 ());
  bad (fun () ->
      Adaptive_threshold.config ~budget:0.1 ~warmup:0 ~initial:0.5 ());
  bad (fun () ->
      Adaptive_threshold.config ~budget:0.1 ~refresh:0 ~initial:0.5 ());
  bad (fun () ->
      Adaptive_threshold.config ~budget:0.1 ~hysteresis:(-1.0) ~initial:0.5 ());
  bad (fun () -> Adaptive_threshold.config ~budget:0.1 ~initial:Float.nan ())

(* --- controller: serialization is resume-invisible ---------------------- *)

let resume_cfg =
  Adaptive_threshold.config ~budget:0.1 ~warmup:8 ~refresh:4 ~initial:0.25 ()

let scores_arb =
  QCheck.(
    list_of_size Gen.(0 -- 300)
      (map (fun i -> float_of_int (i - 500) /. 131.0) (int_bound 1000)))

let prop_roundtrip_and_resume (pre, post) =
  let live = Adaptive_threshold.create resume_cfg in
  List.iter (fun s -> ignore (Adaptive_threshold.step live s)) pre;
  match
    Adaptive_threshold.of_string resume_cfg (Adaptive_threshold.to_string live)
  with
  | None -> false
  | Some resumed ->
      Adaptive_threshold.equal live resumed
      && List.for_all
           (fun s ->
             (* Every post-restore decision must agree, not just the
                final state: a resumed shard replays into the same
                incident log. *)
             Adaptive_threshold.step live s = Adaptive_threshold.step resumed s)
           post
      && Adaptive_threshold.equal live resumed

let test_of_string_rejects () =
  let t = Adaptive_threshold.create resume_cfg in
  for i = 0 to 99 do
    ignore (Adaptive_threshold.step t (float_of_int (i mod 7)))
  done;
  let tok = Adaptive_threshold.to_string t in
  let other_cfg =
    Adaptive_threshold.config ~budget:0.2 ~warmup:8 ~refresh:4 ~initial:0.25 ()
  in
  List.iter
    (fun (what, cfg, s) ->
      match Adaptive_threshold.of_string cfg s with
      | None -> ()
      | Some _ -> Alcotest.failf "accepted %s" what)
    [
      ("empty", resume_cfg, "");
      ("garbage", resume_cfg, "nonsense");
      ("truncated", resume_cfg, String.sub tok 0 (String.length tok / 2));
      (* The sketch's epsilon is pinned to the config: a controller
         token never restores under a different budget. *)
      ("foreign config", other_cfg, tok);
      ("alarms exceed windows", resume_cfg, "at1:3:4:0:3fd0000000000000:gk1");
    ]

(* --- budget allocator --------------------------------------------------- *)

let weights_arb = QCheck.(list_of_size Gen.(1 -- 6) (1 -- 9))

let prop_emitter_rates_sum weights =
  let members =
    List.mapi
      (fun i w ->
        {
          Adaptive_threshold.m_name = Printf.sprintf "e%d" i;
          m_role = Adaptive_threshold.Emitter;
          m_weight = float_of_int w;
        })
      weights
  in
  let suppressor =
    {
      Adaptive_threshold.m_name = "veto";
      m_role = Adaptive_threshold.Suppressor "e0";
      m_weight = 1.0;
    }
  in
  let system_rate = 0.04 in
  let allocs =
    Adaptive_threshold.allocate ~system_rate (members @ [ suppressor ])
  in
  let is_emitter a =
    match a.Adaptive_threshold.a_member.Adaptive_threshold.m_role with
    | Adaptive_threshold.Emitter -> true
    | Adaptive_threshold.Suppressor _ -> false
  in
  let emitter_sum =
    List.fold_left
      (fun acc a ->
        if is_emitter a then acc +. a.Adaptive_threshold.a_rate else acc)
      0.0 allocs
  in
  (* Union bound: the emitters spend the whole system budget between
     them; the suppressor's rate is not charged against it. *)
  Float.abs (emitter_sum -. system_rate) < 1e-12

let test_suppressor_rate () =
  let members = Adaptive_threshold.default_members in
  let allocs = Adaptive_threshold.allocate ~system_rate:0.01 members in
  (match allocs with
  | [ m; s ] ->
      check_float "markov takes the whole budget" ~epsilon:1e-15 0.01
        m.Adaptive_threshold.a_rate;
      check_float "stide relaxed 16x" ~epsilon:1e-15 0.16
        s.Adaptive_threshold.a_rate
  | _ -> Alcotest.fail "expected two allocations");
  (* The relaxation is capped: a generous system rate cannot push the
     suppressor's rate into alarm-on-everything territory. *)
  match Adaptive_threshold.allocate ~system_rate:0.2 members with
  | [ _; s ] ->
      check_float "cap at 0.25" ~epsilon:1e-15 0.25 s.Adaptive_threshold.a_rate
  | _ -> Alcotest.fail "expected two allocations"

let test_allocate_rejects () =
  let emitter name =
    {
      Adaptive_threshold.m_name = name;
      m_role = Adaptive_threshold.Emitter;
      m_weight = 1.0;
    }
  in
  let bad what f =
    match f () with
    | (_ : Adaptive_threshold.allocation list) ->
        Alcotest.failf "accepted %s" what
    | exception Invalid_argument _ -> ()
  in
  bad "empty member list" (fun () ->
      Adaptive_threshold.allocate ~system_rate:0.1 []);
  bad "rate of 0" (fun () ->
      Adaptive_threshold.allocate ~system_rate:0.0 [ emitter "a" ]);
  bad "duplicate names" (fun () ->
      Adaptive_threshold.allocate ~system_rate:0.1 [ emitter "a"; emitter "a" ]);
  bad "non-positive weight" (fun () ->
      Adaptive_threshold.allocate ~system_rate:0.1
        [ { (emitter "a") with Adaptive_threshold.m_weight = 0.0 } ]);
  bad "suppressor-only ensemble" (fun () ->
      Adaptive_threshold.allocate ~system_rate:0.1
        [
          {
            Adaptive_threshold.m_name = "s";
            m_role = Adaptive_threshold.Suppressor "ghost";
            m_weight = 1.0;
          };
        ]);
  bad "suppressor naming a missing emitter" (fun () ->
      Adaptive_threshold.allocate ~system_rate:0.1
        [
          emitter "a";
          {
            Adaptive_threshold.m_name = "s";
            m_role = Adaptive_threshold.Suppressor "b";
            m_weight = 1.0;
          };
        ])

(* --- budget tracking on seeded drifting streams, jobs 1 and 4 -----------

   The serve-layer claim, reproduced in miniature: per-session
   controllers over a drifting corpus hold the observed alarm rate
   near the budget, and the evaluation is byte-identical whether the
   sessions are scored serially or on four domains (controllers are
   per-session state, so parallelism must be invisible). *)

let drifting_eval ~jobs ~budget =
  let suite = small_suite () in
  let markov =
    Trained.train (Registry.find_exn "markov") ~window:6 suite.Suite.training
  in
  let corpus =
    Session_workload.drifting suite
      (Prng.create ~seed:(suite.Suite.params.Suite.seed + 17))
      ~sessions:16 ~length:3_000 ~segments:3 ~peak_deviation:0.2
  in
  let pool = Pool.create ~jobs in
  Pool.map pool
    (fun trace ->
      let t =
        Adaptive_threshold.create
          (Adaptive_threshold.config ~budget ~initial:1.0 ())
      in
      let resp = Trained.score markov trace in
      Array.iter
        (fun item -> ignore (Adaptive_threshold.step t item.Response.score))
        resp.Response.items;
      ( Adaptive_threshold.windows t,
        Adaptive_threshold.alarms t,
        Adaptive_threshold.to_string t ))
    (Seqdiv_stream.Sessions.traces corpus)

let test_drifting_budget_and_jobs () =
  let budget = 0.05 in
  let serial = drifting_eval ~jobs:1 ~budget in
  let parallel = drifting_eval ~jobs:4 ~budget in
  Alcotest.(check bool) "jobs 1 and 4 bit-identical" true (serial = parallel);
  let windows, alarms =
    List.fold_left (fun (w, a) (w', a', _) -> (w + w', a + a')) (0, 0) serial
  in
  let rate = float_of_int alarms /. float_of_int windows in
  (* The guarantee is one-sided — P(score > q_phi) <= budget + eps —
     so the ceiling carries the sketch slack; the floor only rules out
     a controller that silences everything. *)
  Alcotest.(check bool)
    (Printf.sprintf "rate %.4f within budget %.2f tolerance" rate budget)
    true
    (rate > 0.0 && rate <= (budget *. 1.5) +. 0.01)

(* --- suppression policy on the 112-stream suite -------------------------

   Cold-start operation (no calibration pass: thresholds start at 0
   and are learned in-stream) is exactly where the suppressor earns
   its keep: until the Markov controller's first refresh every benign
   window scores above 0, while Stide — whose training covers the
   clean background completely — scores 0 and the strict [>] rule
   never corroborates.  The conjunction must strictly reduce false
   alarms over the whole suite without losing any detection inside
   Stide's coverage.

   That coverage has a sharp boundary the suite exposes: a {e minimal}
   foreign sequence's proper subsequences are all non-foreign, so a
   detector window shorter than the anomaly only ever sees content
   Stide has trained on — the 28 cells with [DW < AS] are invisible to
   the suppressor and the conjunction is expected to go silent there
   (the diversity trade-off of Section 7).  The test pins the boundary
   exactly: detection preserved iff [DW >= AS]. *)

let test_suppression_on_suite () =
  let suite = small_suite () in
  let system_rate = 0.05 in
  let markov_solo = [ List.hd Adaptive_threshold.default_members ] in
  let solo_fa = ref 0 and ens_fa = ref 0 in
  let solo_hits = ref 0 and covered = ref 0 and covered_hits = ref 0 in
  let streams = ref 0 in
  List.iter
    (fun window ->
      let markov =
        Trained.train (Registry.find_exn "markov") ~window suite.Suite.training
      in
      let stide =
        Trained.train (Registry.find_exn "stide") ~window suite.Suite.training
      in
      List.iter
        (fun anomaly_size ->
          incr streams;
          let ts = Suite.stream suite ~anomaly_size ~window in
          let inj = ts.Suite.injection in
          let mr = Trained.score markov inj.Injector.trace in
          let sr = Trained.score stide inj.Injector.trace in
          let lo, hi =
            Injector.incident_span ~position:inj.Injector.position
              ~size:anomaly_size ~width:window
          in
          let tally resp =
            let fa = ref 0 and hit = ref false in
            Array.iter
              (fun item ->
                if item.Response.score > 0.5 then
                  if item.Response.start >= lo && item.Response.start <= hi
                  then hit := true
                  else incr fa)
              resp.Response.items;
            (!fa, !hit)
          in
          let solo, _ =
            Ensemble.adaptive_combine ~system_rate ~initial:0.0
              (List.map (fun m -> (m, mr)) markov_solo)
          in
          let ens, _ =
            Ensemble.adaptive_combine ~system_rate ~initial:0.0
              (List.combine Adaptive_threshold.default_members [ mr; sr ])
          in
          let s_fa, s_hit = tally solo in
          let e_fa, e_hit = tally ens in
          solo_fa := !solo_fa + s_fa;
          ens_fa := !ens_fa + e_fa;
          if s_hit then incr solo_hits;
          if window >= anomaly_size then begin
            incr covered;
            if e_hit then incr covered_hits
          end
          else if e_hit then
            Alcotest.failf
              "AS=%d DW=%d: detection outside the suppressor's coverage"
              anomaly_size window;
          if e_fa > s_fa then
            Alcotest.failf
              "AS=%d DW=%d: suppression raised false alarms (%d > %d)"
              anomaly_size window e_fa s_fa)
        (Suite.anomaly_sizes suite))
    (Suite.windows suite);
  Alcotest.(check int) "whole suite covered" 112 !streams;
  Alcotest.(check int) "markov alone detects every stream" !streams !solo_hits;
  Alcotest.(check int) "84 cells inside the coverage boundary" 84 !covered;
  Alcotest.(check int) "no covered detection lost to suppression" !covered
    !covered_hits;
  Alcotest.(check bool)
    (Printf.sprintf "false alarms strictly reduced (%d -> %d)" !solo_fa !ens_fa)
    true
    (!ens_fa < !solo_fa)

let () =
  Alcotest.run "adaptive_threshold"
    [
      ( "controller",
        [
          Alcotest.test_case "warmup honored" `Quick test_warmup_honored;
          Alcotest.test_case "tracks the budget atom" `Quick
            test_tracks_atom_quantile;
          Alcotest.test_case "hysteresis band in probability space" `Quick
            test_hysteresis_band;
          Alcotest.test_case "alarms strictly above" `Quick test_strictly_above;
          Alcotest.test_case "config validation" `Quick test_config_rejects;
        ] );
      ( "serialization",
        [
          qcheck ~count:200 "roundtrip and resume agreement"
            QCheck.(pair scores_arb scores_arb)
            prop_roundtrip_and_resume;
          Alcotest.test_case "malformed and foreign tokens rejected" `Quick
            test_of_string_rejects;
        ] );
      ( "allocator",
        [
          qcheck ~count:200 "emitter rates sum to the system rate" weights_arb
            prop_emitter_rates_sum;
          Alcotest.test_case "suppressor relaxed and capped" `Quick
            test_suppressor_rate;
          Alcotest.test_case "validation" `Quick test_allocate_rejects;
        ] );
      ( "budget",
        [
          Alcotest.test_case "drifting streams, jobs 1 and 4" `Quick
            test_drifting_budget_and_jobs;
        ] );
      ( "ensemble",
        [
          Alcotest.test_case "suppression on the 112-stream suite" `Quick
            test_suppression_on_suite;
        ] );
    ]
