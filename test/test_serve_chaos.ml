(* The serve-layer chaos determinism contract, proven at the
   supervisor-model level: a faithful simulation of serve.ml's shard
   lifecycle (crash before apply, restart from the shard journal with
   a consecutive budget that resets on progress, degrade when the
   budget is out) driven by the stateless Fault_plan.

   Property 1: under any Transient-only chaos seed whose sticky window
   fits the restart budget, the per-session incident log is
   byte-identical to the chaos-free run — at shard counts 1, 2 and 4.
   Property 2: a shard whose fate exhausts the budget degrades alone;
   every other shard's sessions still match the reference.

   A golden fixture locks one fixed corpus's logs and restart counts
   byte-for-byte; promote with scripts/promote-golden.sh. *)

open Seqdiv_stream
open Seqdiv_synth
open Seqdiv_core
open Seqdiv_detectors
open Seqdiv_test_support

let scorer_and_threshold =
  lazy
    (let suite = tiny_suite () in
     let stide =
       Trained.train (Registry.find_exn "stide") ~window:4 suite.Suite.training
     in
     let scorer =
       match Trained.compile stide with
       | Some scorer -> scorer
       | None -> Alcotest.fail "stide must compile"
     in
     (scorer, Trained.alarm_threshold stide))

let incident_of_core (i : Incident.t) =
  {
    Frame.first_start = i.Incident.first_start;
    last_start = i.Incident.last_start;
    cover_from = i.Incident.cover_from;
    cover_to = i.Incident.cover_to;
    alarms = i.Incident.alarms;
    peak_score = i.Incident.peak_score;
  }

(* {1 The serial reference} — as in test_session_table: one Online
   monitor per session, events in stream order. *)

let serial_replay ~scorer ~threshold batches =
  let monitors = Hashtbl.create 16 in
  let log = ref [] in
  let emit session = function
    | Online.Window_scored _ -> ()
    | Online.Incident_opened position ->
        log := Frame.Opened { session; position } :: !log
    | Online.Incident_closed incident ->
        log :=
          Frame.Closed { session; incident = incident_of_core incident }
          :: !log
  in
  List.iter
    (fun events ->
      List.iter
        (fun event ->
          match event with
          | Frame.Data { session; symbols } ->
              let monitor =
                match Hashtbl.find_opt monitors session with
                | Some m -> m
                | None ->
                    let m = Online.of_scorer scorer ~threshold in
                    Hashtbl.replace monitors session m;
                    m
              in
              Array.iter
                (fun s -> List.iter (emit session) (Online.feed monitor s))
                symbols
          | Frame.End_of_session { session } -> (
              match Hashtbl.find_opt monitors session with
              | Some monitor ->
                  List.iter (emit session) (Online.flush monitor);
                  Hashtbl.remove monitors session
              | None -> ()))
        events)
    batches;
  List.rev !log

let by_session incident_events =
  let t = Hashtbl.create 16 in
  List.iter
    (fun ev ->
      let session =
        match ev with
        | Frame.Opened { session; _ } | Frame.Closed { session; _ } -> session
      in
      let line = Frame.render_incident_event ev in
      Hashtbl.replace t session
        (line :: Option.value ~default:[] (Hashtbl.find_opt t session)))
    incident_events;
  Hashtbl.fold (fun s lines acc -> (s, List.rev lines) :: acc) t []
  |> List.sort compare

let route_events ~shards events =
  let buckets = Array.make shards [] in
  List.iter
    (fun event ->
      let session =
        match event with
        | Frame.Data { session; _ } | Frame.End_of_session { session } ->
            session
      in
      let shard = Frame.shard_of_session ~shards session in
      buckets.(shard) <- event :: buckets.(shard))
    events;
  Array.map List.rev buckets

(* {1 The supervisor model} *)

type sim_shard = {
  ss_shard : int;
  mutable ss_table : Session_table.t;
  mutable ss_consecutive : int;
  mutable ss_restarts : int;
  mutable ss_degraded : bool;
}

type sim_outcome = {
  so_log : Frame.incident_event list;  (* acked incidents, emission order *)
  so_failed : (int * int) list;  (* (batch_id, shard) answered Failed *)
  so_restarts : int;
  so_degraded : int list;  (* ascending *)
}

let with_journal_dir f =
  let dir = Filename.temp_file "seqdiv-serve-chaos" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun n -> try Sys.remove (Filename.concat dir n) with Sys_error _ -> ())
        (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () -> f dir)

(* Exactly the supervisor's semantics: the chaos trip fires BEFORE the
   apply (the journal holds only committed batches at the crash), a
   restart reopens the journal with resume and re-runs the job at
   attempt+1, the consecutive budget resets whenever a job is answered,
   and an exhausted budget degrades the shard — its stranded and future
   sub-batches answered Failed, nothing else touched. *)
let chaos_replay ?(tag = "t") ~scorer ~threshold ~shards ~plan ~max_restarts
    ~dir batches =
  let context shard = Printf.sprintf "serve chaos test shard=%d" shard in
  let journal_path shard =
    Filename.concat dir
      (Printf.sprintf "%s-s%d-shard-%d.journal" tag shards shard)
  in
  let open_table ~resume shard =
    let journal =
      Shard_journal.start ~resume ~context:(context shard)
        (journal_path shard)
    in
    Session_table.create ~scorer ~threshold ~journal ~shard ()
  in
  let sims =
    Array.init shards (fun shard ->
        {
          ss_shard = shard;
          ss_table = open_table ~resume:false shard;
          ss_consecutive = 0;
          ss_restarts = 0;
          ss_degraded = false;
        })
  in
  let log = ref [] and failed = ref [] in
  List.iteri
    (fun batch_id events ->
      let buckets = route_events ~shards events in
      Array.iteri
        (fun shard sub ->
          match sub with
          | [] -> ()
          | sub ->
              let sim = sims.(shard) in
              if sim.ss_degraded then failed := (batch_id, shard) :: !failed
              else
                let key = Fault_plan.job_key ~batch_id ~shard in
                let rec run attempt =
                  match Fault_plan.trip plan ~key ~attempt with
                  | () ->
                      let evs =
                        Session_table.apply sim.ss_table ~batch_id sub
                      in
                      sim.ss_consecutive <- 0;
                      log := List.rev_append evs !log
                  | exception Fault.Injected (severity, _) ->
                      if
                        severity = Fault.Transient
                        && sim.ss_consecutive < max_restarts
                      then begin
                        sim.ss_consecutive <- sim.ss_consecutive + 1;
                        sim.ss_restarts <- sim.ss_restarts + 1;
                        sim.ss_table <- open_table ~resume:true shard;
                        run (attempt + 1)
                      end
                      else begin
                        sim.ss_degraded <- true;
                        failed := (batch_id, shard) :: !failed
                      end
                in
                run 0)
        buckets)
    batches;
  {
    so_log = List.rev !log;
    so_failed = List.rev !failed;
    so_restarts =
      Array.fold_left (fun a s -> a + s.ss_restarts) 0 sims;
    so_degraded =
      Array.to_list sims
      |> List.filter_map (fun s ->
             if s.ss_degraded then Some s.ss_shard else None);
  }

(* {1 Generators} — the test_session_table shapes. *)

let gen_event =
  QCheck.Gen.(
    frequency
      [
        ( 6,
          map2
            (fun session symbols ->
              Frame.Data { session; symbols = Array.of_list symbols })
            (int_bound 5)
            (list_size (1 -- 12) (int_bound 7)) );
        (1, map (fun session -> Frame.End_of_session { session }) (int_bound 5));
      ])

let gen_batches =
  QCheck.Gen.(list_size (1 -- 12) (list_size (1 -- 8) gen_event))

let arbitrary_batches =
  QCheck.make
    ~print:(fun batches ->
      Printf.sprintf "%d batches / %d events" (List.length batches)
        (List.fold_left (fun a b -> a + List.length b) 0 batches))
    gen_batches

(* {1 Properties} *)

let prop_chaos_determinism =
  (* Sticky crashes within the restart budget: every sub-batch is
     eventually acked and the per-session log never moves — any seed,
     any shard count. *)
  qcheck ~count:30 "transient chaos log = chaos-free log (shards 1/2/4)"
    arbitrary_batches
    (fun batches ->
      let scorer, threshold = Lazy.force scorer_and_threshold in
      let plan =
        Fault_plan.of_seed ~transient_rate:0.35 ~sticky:2 ~seed:42 ()
      in
      let reference = by_session (serial_replay ~scorer ~threshold batches) in
      with_journal_dir (fun dir ->
          List.for_all
            (fun shards ->
              let o =
                chaos_replay ~scorer ~threshold ~shards ~plan ~max_restarts:3
                  ~dir batches
              in
              o.so_failed = [] && o.so_degraded = []
              && by_session o.so_log = reference)
            [ 1; 2; 4 ]))

let prop_degrade_isolation =
  (* An unbounded sticky window exhausts the budget: the first
     crash-fated sub-batch degrades its shard.  Every degraded shard
     answered Failed for that sub, and the sessions of the surviving
     shards still match the reference exactly. *)
  qcheck ~count:30 "exhausted budget degrades only its shard"
    arbitrary_batches
    (fun batches ->
      let scorer, threshold = Lazy.force scorer_and_threshold in
      let plan =
        Fault_plan.of_seed ~transient_rate:0.35 ~sticky:1_000_000 ~seed:7 ()
      in
      let shards = 2 in
      let reference = by_session (serial_replay ~scorer ~threshold batches) in
      with_journal_dir (fun dir ->
          let o =
            chaos_replay ~scorer ~threshold ~shards ~plan ~max_restarts:2 ~dir
              batches
          in
          let degraded shard = List.mem shard o.so_degraded in
          List.for_all (fun (_, shard) -> degraded shard) o.so_failed
          && (o.so_failed = []) = (o.so_degraded = [])
          && List.filter
               (fun (session, _) ->
                 not (degraded (Frame.shard_of_session ~shards session)))
               (by_session o.so_log)
             = List.filter
                 (fun (session, _) ->
                   not (degraded (Frame.shard_of_session ~shards session)))
                 reference))

(* {1 Golden fixture} — one fixed corpus, logs and restart counts
   locked byte-for-byte at shards 1, 2 and 4. *)

let golden_dir =
  match Sys.getenv_opt "SEQDIV_GOLDEN_DIR" with
  | Some d -> d
  | None -> "golden"

let fixture = Filename.concat golden_dir "serve_chaos.txt"

(* Six sessions, ten batches, arithmetic symbols: fully deterministic
   without a generator in the loop. *)
let golden_batches =
  List.init 10 (fun i ->
      let data =
        List.init 6 (fun s ->
            Frame.Data
              {
                session = s;
                symbols =
                  Array.init 7 (fun k -> ((i * 5) + (s * 3) + (k * 2)) mod 8);
              })
      in
      if i = 9 then
        data @ List.init 6 (fun s -> Frame.End_of_session { session = s })
      else data)

let render_sessions buf sessions =
  List.iter
    (fun (session, lines) ->
      Printf.bprintf buf "session %d:\n" session;
      List.iter (fun l -> Printf.bprintf buf "  %s\n" l) lines)
    sessions

let gen_fixture () =
  let scorer, threshold = Lazy.force scorer_and_threshold in
  let buf = Buffer.create 4096 in
  let reference =
    by_session (serial_replay ~scorer ~threshold golden_batches)
  in
  Buffer.add_string buf "== reference (chaos-free serial replay) ==\n";
  render_sessions buf reference;
  with_journal_dir (fun dir ->
      let plan =
        Fault_plan.of_seed ~transient_rate:0.4 ~sticky:2 ~seed:11 ()
      in
      List.iter
        (fun shards ->
          let o =
            chaos_replay ~scorer ~threshold ~shards ~plan ~max_restarts:3 ~dir
              golden_batches
          in
          Printf.bprintf buf
            "== chaos shards=%d crash=0.40 sticky=2 max_restarts=3 ==\n"
            shards;
          Printf.bprintf buf "restarts=%d degraded=%d failed_subs=%d log=%s\n"
            o.so_restarts
            (List.length o.so_degraded)
            (List.length o.so_failed)
            (if by_session o.so_log = reference then "identical"
             else "DIVERGED");
          if by_session o.so_log <> reference then
            render_sessions buf (by_session o.so_log))
        [ 1; 2; 4 ];
      (* seed 3 at rate 0.15 fates shard 0's batches 0 and 6 to crash
         and leaves every shard-1 sub clean: shard 0 degrades alone and
         the fixture shows shard 1's sessions surviving untouched. *)
      let plan_fatal =
        Fault_plan.of_seed ~transient_rate:0.15 ~sticky:1_000_000 ~seed:3 ()
      in
      let o =
        chaos_replay ~tag:"fatal" ~scorer ~threshold ~shards:2 ~plan:plan_fatal
          ~max_restarts:1 ~dir golden_batches
      in
      Printf.bprintf buf
        "== exhausted budget shards=2 crash=0.15 sticky=inf max_restarts=1 ==\n";
      Printf.bprintf buf "degraded=[%s] failed_subs=%d\n"
        (String.concat ";" (List.map string_of_int o.so_degraded))
        (List.length o.so_failed);
      Buffer.add_string buf "surviving sessions:\n";
      render_sessions buf
        (List.filter
           (fun (session, _) ->
             not
               (List.mem (Frame.shard_of_session ~shards:2 session)
                  o.so_degraded))
           (by_session o.so_log)));
  Buffer.contents buf

let promote () =
  Out_channel.with_open_bin fixture (fun oc ->
      Out_channel.output_string oc (gen_fixture ()));
  Printf.printf "promoted %s\n" fixture

let check_fixture () =
  if not (Sys.file_exists fixture) then
    Alcotest.failf "missing fixture %s — run scripts/promote-golden.sh" fixture;
  let expected = In_channel.with_open_bin fixture In_channel.input_all in
  Alcotest.(check string) "serve chaos fixture matches byte-for-byte" expected
    (gen_fixture ())

let test_chaos_fires () =
  (* The golden corpus must actually exercise the machinery: restarts
     strictly positive under the transient plan, at every shard count. *)
  let scorer, threshold = Lazy.force scorer_and_threshold in
  let plan = Fault_plan.of_seed ~transient_rate:0.4 ~sticky:2 ~seed:11 () in
  with_journal_dir (fun dir ->
      List.iter
        (fun shards ->
          let o =
            chaos_replay ~scorer ~threshold ~shards ~plan ~max_restarts:3 ~dir
              golden_batches
          in
          Alcotest.(check bool)
            (Printf.sprintf "restarts fired at shards=%d" shards)
            true (o.so_restarts > 0))
        [ 1; 2; 4 ])

let () =
  match Sys.getenv_opt "SEQDIV_GOLDEN_PROMOTE" with
  | Some _ -> promote ()
  | None ->
      Alcotest.run "serve_chaos"
        [
          ( "serve_chaos",
            [
              Alcotest.test_case "chaos fires" `Quick test_chaos_fires;
              Alcotest.test_case "golden" `Slow check_fixture;
              prop_chaos_determinism;
              prop_degrade_isolation;
            ] );
        ]
