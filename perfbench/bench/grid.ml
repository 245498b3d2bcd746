(* The grid workload: the paper's own experiment, in process.  Suite.build
   at the default reduced scale is the set-up; Experiment.all_maps over
   lnb, markov, stide and nn on a fresh Engine is the timed unit.

   Each detector is wrapped so that every map cell's scoring call (one
   Engine score task) and every training call is timed from outside the
   library: a cell is the grid's batch. *)

open Seqdiv_stream
open Seqdiv_detectors
open Seqdiv_synth
open Seqdiv_core

let detectors = [ "lnb"; "markov"; "stide"; "nn" ]

(* Recorded from worker domains, hence the lock. *)
type probe = {
  lock : Mutex.t;
  cells_ms : Measure.samples;
  detector_cells_ms : (string * Measure.samples) list;  (* one per detector *)
  mutable windows : int;  (* window starts the cells scored *)
  train_s : (string, float) Hashtbl.t;  (* summed per detector *)
  mutable spans : (string * int * float * float) list;  (* traced runs *)
  mutable tracing : bool;
}

let probe () =
  { lock = Mutex.create (); cells_ms = Measure.samples ();
    detector_cells_ms = List.map (fun d -> (d, Measure.samples ())) detectors;
    windows = 0; train_s = Hashtbl.create 8; spans = []; tracing = false }

let timed (pr : probe) (module D : Detector.S) : Detector.t =
  let module T = struct
    include D

    let record_train t0 =
      let t1 = Measure.now () in
      Mutex.protect pr.lock (fun () ->
          Hashtbl.replace pr.train_s D.name
            ((t1 -. t0) +. Option.value ~default:0.0 (Hashtbl.find_opt pr.train_s D.name));
          if pr.tracing then pr.spans <- ("train." ^ D.name, 0, t0, t1) :: pr.spans)

    let train ~window trace =
      let t0 = Measure.now () in
      let m = D.train ~window trace in
      record_train t0;
      m

    let train_of_trie =
      Option.map
        (fun f trie ~window ->
          let t0 = Measure.now () in
          let m = f trie ~window in
          record_train t0;
          m)
        D.train_of_trie

    let score_range m trace ~lo ~hi =
      let t0 = Measure.now () in
      let r = D.score_range m trace ~lo ~hi in
      let t1 = Measure.now () in
      let a, b =
        Detector.clamp_range ~trace_len:(Trace.length trace) ~window:(D.window m) ~lo ~hi
      in
      Mutex.protect pr.lock (fun () ->
          let ms = (t1 -. t0) *. 1000.0 in
          Measure.add pr.cells_ms ms;
          Measure.add (List.assoc D.name pr.detector_cells_ms) ms;
          pr.windows <- pr.windows + Stdlib.max 0 (b - a + 1);
          if pr.tracing then
            pr.spans <- ("score." ^ D.name, D.window m, t0, t1) :: pr.spans);
      r
  end in
  (module T)

(* One all_maps on a fresh engine (so no model is reused across runs):
   wall time, maps, engine stats. *)
let all_maps pr suite ~jobs =
  let engine = Engine.create ~clock:Measure.now ~jobs () in
  let ds = List.map (fun n -> timed pr (Registry.find_exn n)) detectors in
  let t0 = Measure.now () in
  let maps = Experiment.all_maps ~engine suite ds in
  (Measure.now () -. t0, maps, Engine.stats engine)

(* The maps rendered as text, for the cross-run equality check. *)
let render maps =
  String.concat "\n"
    (List.map
       (fun m ->
         Performance_map.detector m ^ ":"
         ^ String.concat ""
             (List.concat_map
                (fun a ->
                  List.map
                    (fun w ->
                      String.make 1
                        (Outcome.to_char (Performance_map.outcome m ~anomaly_size:a ~window:w)))
                    (Performance_map.windows m))
                (Performance_map.anomaly_sizes m)))
       maps)

(* Failed cells, and Stide cells that contradict Figure 5: capable
   exactly where DW >= AS, blind elsewhere, whatever the seed. *)
let violations maps =
  List.fold_left
    (fun (n, problems) m ->
      let failed = List.length (Performance_map.failed_cells m) in
      let stide_wrong =
        if Performance_map.detector m <> "stide" then 0
        else
          List.fold_left
            (fun acc a ->
              List.fold_left
                (fun acc w ->
                  let o = Performance_map.outcome m ~anomaly_size:a ~window:w in
                  let ok = if w >= a then Outcome.is_capable o else Outcome.is_blind o in
                  if ok then acc else acc + 1)
                acc (Performance_map.windows m))
            0 (Performance_map.anomaly_sizes m)
      in
      let problems =
        (if failed > 0 then
           [ Printf.sprintf "%s map: %d failed cells" (Performance_map.detector m) failed ]
         else [])
        @ (if stide_wrong > 0 then
             [ Printf.sprintf "stide map: %d cells contradict DW >= AS" stide_wrong ]
           else [])
        @ problems
      in
      (n + failed + stide_wrong, problems))
    (0, []) maps

type run = {
  setup_s : float list;
  maps_s : float list;
  cells_ms : Measure.samples;
  windows : int;
  rss_mb : float;
  cells : int;
  failed : int;
  problems : string list;
  stats : Engine.stats;
  probe : probe;
  rendered : string;  (* the first suite's maps, as [render] prints them *)
}

(* A run spreads its repetitions over [suites] suites generated from the
   seed, because all_maps' cost depends on the training trace (nn trains
   on its distinct contexts): with one suite per seed, wall time varied
   by 0.2 of its median across seeds. *)
let suites = 4
let suite_seed seed k = seed + (k * 1_000_003)

(* Timed repetitions for a run of [seconds]: one cycle over the suites
   (about 24 s on two cores) per 20 s, rounded, at least one.  A cycle
   leaves more than ten cells beyond the p99. *)
let reps_for ~seconds = suites * Stdlib.max 1 (int_of_float (Float.round (seconds /. 20.0)))

(* Set-up is timed throughout the run.  Suite.build takes tens of
   milliseconds and the machine runs in fast and slow phases seconds
   long, so builds timed back to back at the start all fall in one
   phase.  Before each repetition every suite is built and timed, each
   on a collected heap so that no build pays for the garbage of the one
   before it; the last build is the repetition's own suite.  The process
   holds one suite at a time. *)
let timed_builds seed k =
  let times = ref [] and suite = ref None in
  for j = 1 to suites do
    suite := None;
    Gc.full_major ();
    let t0 = Measure.now () in
    suite := Some (Suite.build (Traffic.suite_params (suite_seed seed ((k + j) mod suites))));
    times := (Measure.now () -. t0) :: !times
  done;
  (Option.get !suite, !times)

(* [reps] timed all_maps; repetition k runs on suite k mod [suites]. *)
let run ?(tracing = false) ~reps ~seed ~jobs () =
  let pr = probe () in
  pr.tracing <- tracing;
  let setups = ref [] in
  let results =
    List.init reps (fun k ->
        let suite, times = timed_builds seed k in
        setups := times @ !setups;
        (k mod suites, all_maps pr suite ~jobs))
  in
  (* Repetitions on the same suite must produce the same maps. *)
  let rendered = Hashtbl.create suites in
  let failed, problems =
    List.fold_left
      (fun (n, ps) (k, (_, maps, _)) ->
        let v, p = violations maps in
        let r = render maps in
        let differs =
          match Hashtbl.find_opt rendered k with
          | Some r0 when r0 <> r -> 1
          | Some _ -> 0
          | None ->
              Hashtbl.replace rendered k r;
              0
        in
        ( n + v + differs,
          p @ (if differs = 1 then [ "maps differ between repetitions" ] else []) @ ps ))
      (0, []) results
  in
  let results = List.map snd results in
  let cells =
    List.fold_left
      (fun acc (_, maps, _) ->
        acc + List.fold_left (fun a m -> a + Performance_map.cell_count m) 0 maps)
      0 results
  in
  let _, _, stats = List.nth results (List.length results - 1) in
  {
    setup_s = !setups;
    maps_s = List.map (fun (t, _, _) -> t) results;
    cells_ms = pr.cells_ms;
    windows = pr.windows;
    rss_mb = Measure.peak_rss_mb "self";
    cells;
    failed;
    problems;
    stats;
    probe = pr;
    rendered = Hashtbl.find rendered 0;
  }
