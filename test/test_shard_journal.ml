(* The serve layer's per-shard journal: commit-group atomicity is the
   property under test.  Recovery must restore exactly the committed
   groups — a torn tail or an uncommitted group disappears whole, never
   as a half-applied flush — and compaction must be invisible to the
   recovered state. *)

open Seqdiv_stream
open Seqdiv_core

let temp_path () = Filename.temp_file "seqdiv-shard-journal" ".journal"

let with_temp f =
  let path = temp_path () in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let context = "serve model=stide depth=6 states=276 threshold=3ff0000000000000 shards=2 shard=0"

let session ?(consumed = 100) ?(state = 42) ?open_incident ?adaptive id =
  {
    Shard_journal.js_session = id;
    js_consumed = consumed;
    js_state = state;
    js_open = open_incident;
    js_adaptive = adaptive;
  }

let incident =
  {
    Frame.first_start = 95;
    last_start = 103;
    cover_from = 95;
    cover_to = 108;
    alarms = 4;
    peak_score = 0.25;
  }

let batch ?(shard = 0) ?(events = 10) ?(incidents = []) id =
  { Shard_journal.jb_id = id; jb_shard = shard; jb_events = events; jb_incidents = incidents }

let commit_group j sessions ends batches =
  List.iter (Shard_journal.record_session j) sessions;
  List.iter (fun s -> Shard_journal.record_end j ~session:s) ends;
  List.iter (Shard_journal.record_batch j) batches;
  Shard_journal.commit j

let session_ids j =
  List.map (fun s -> s.Shard_journal.js_session) (Shard_journal.sessions j)

let batch_ids j =
  List.map (fun b -> b.Shard_journal.jb_id) (Shard_journal.batches j)

(* The empty context is a valid run description too: its line is the
   bare "context " prefix. *)
let test_roundtrip () =
  List.iter
    (fun context ->
      with_temp (fun path ->
          let j = Shard_journal.start ~context path in
          commit_group j
            [ session 3; session 1 ~open_incident:incident ]
            []
            [
              batch 0 ~incidents:[ Frame.Opened { session = 1; position = 95 } ];
            ];
          commit_group j [ session 2 ] [ 3 ] [ batch 1 ];
          let r = Shard_journal.start ~resume:true ~context path in
          Alcotest.(check (list int)) "live sessions, ascending" [ 1; 2 ]
            (session_ids r);
          Alcotest.(check (list int)) "batches oldest first" [ 0; 1 ]
            (batch_ids r);
          Alcotest.(check int) "nothing dropped" 0
            (Shard_journal.dropped_lines r);
          let s1 =
            List.find
              (fun s -> s.Shard_journal.js_session = 1)
              (Shard_journal.sessions r)
          in
          Alcotest.(check bool) "open incident survives" true
            (match s1.Shard_journal.js_open with
            | Some i -> i = incident
            | None -> false);
          match Shard_journal.batches r with
          | [ b0; _ ] ->
              Alcotest.(check int) "incident events retained" 1
                (List.length b0.Shard_journal.jb_incidents)
          | _ -> Alcotest.fail "expected two batch records"))
    [ context; "" ]

let test_latest_record_wins () =
  with_temp (fun path ->
      let j = Shard_journal.start ~context path in
      commit_group j [ session 5 ~consumed:10 ] [] [ batch 0 ];
      commit_group j [ session 5 ~consumed:20 ] [] [ batch 1 ];
      let r = Shard_journal.start ~resume:true ~context path in
      match Shard_journal.sessions r with
      | [ s ] ->
          Alcotest.(check int) "newest snapshot" 20 s.Shard_journal.js_consumed
      | _ -> Alcotest.fail "expected one live session")

let test_uncommitted_group_dropped () =
  with_temp (fun path ->
      let j = Shard_journal.start ~context path in
      commit_group j [ session 1 ~consumed:10 ] [] [ batch 0 ];
      commit_group j [ session 1 ~consumed:20; session 2 ] [] [ batch 1 ];
      (* Simulate a crash between the group's records and its commit
         marker: chop the marker line (the last line) off the file. *)
      let lines =
        In_channel.with_open_bin path In_channel.input_all
        |> String.split_on_char '\n'
      in
      let n = List.length lines in
      (* input_all leaves a trailing "" after the final newline *)
      let kept = List.filteri (fun i _ -> i < n - 2) lines in
      Out_channel.with_open_bin path (fun oc ->
          List.iter
            (fun l ->
              Out_channel.output_string oc l;
              Out_channel.output_char oc '\n')
            kept);
      let r = Shard_journal.start ~resume:true ~context path in
      Alcotest.(check bool) "tail group dropped" true
        (Shard_journal.dropped_lines r > 0);
      (match Shard_journal.sessions r with
      | [ s ] ->
          Alcotest.(check int) "session 2 never existed" 1
            s.Shard_journal.js_session;
          (* The atomicity property: session 1 must NOT carry the second
             group's snapshot, because batch 1's record is gone with it. *)
          Alcotest.(check int) "state rolled back with its batch" 10
            s.Shard_journal.js_consumed
      | _ -> Alcotest.fail "expected exactly session 1");
      Alcotest.(check (list int)) "batch 1 dropped with its group" [ 0 ]
        (batch_ids r))

let test_torn_tail_dropped () =
  with_temp (fun path ->
      let j = Shard_journal.start ~context path in
      commit_group j [ session 1 ] [] [ batch 0 ];
      commit_group j [ session 2 ] [] [ batch 1 ];
      (* Torn write: the file ends mid-line. *)
      let contents = In_channel.with_open_bin path In_channel.input_all in
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc
            (String.sub contents 0 (String.length contents - 7)));
      let r = Shard_journal.start ~resume:true ~context path in
      Alcotest.(check bool) "something dropped" true
        (Shard_journal.dropped_lines r > 0);
      Alcotest.(check (list int)) "first group intact" [ 1 ] (session_ids r);
      Alcotest.(check (list int)) "second batch gone" [ 0 ] (batch_ids r);
      (* The journal stays writable after recovering around the tear. *)
      commit_group r [ session 9 ] [] [ batch 9 ];
      let r2 = Shard_journal.start ~resume:true ~context path in
      Alcotest.(check (list int)) "appendable after recovery" [ 1; 9 ]
        (session_ids r2))

let test_context_mismatch () =
  with_temp (fun path ->
      let j = Shard_journal.start ~context path in
      commit_group j [ session 1 ] [] [ batch 0 ];
      match Shard_journal.start ~resume:true ~context:(context ^ " shards=4") path with
      | _ -> Alcotest.fail "foreign context accepted"
      | exception Shard_journal.Corrupt _ -> ())

let test_fresh_start_truncates () =
  with_temp (fun path ->
      let j = Shard_journal.start ~context path in
      commit_group j [ session 1 ] [] [ batch 0 ];
      (* Without resume, starting over discards history. *)
      let j2 = Shard_journal.start ~context path in
      Alcotest.(check (list int)) "empty" [] (session_ids j2);
      Alcotest.(check int) "no recovered sessions" 0
        (Shard_journal.recovered_sessions j2))

let test_batch_history_bounded () =
  with_temp (fun path ->
      let j = Shard_journal.start ~batch_history:4 ~context path in
      for i = 0 to 19 do
        commit_group j [ session 1 ~consumed:i ] [] [ batch i ]
      done;
      let r = Shard_journal.start ~resume:true ~batch_history:4 ~context path in
      Alcotest.(check (list int)) "only the newest window" [ 16; 17; 18; 19 ]
        (batch_ids r))

let test_compaction_invisible () =
  with_temp (fun path ->
      let j = Shard_journal.start ~batch_history:4 ~context path in
      (* Sessions come and go; the live set stays small so the rewrite
         threshold keeps firing. *)
      for i = 0 to 199 do
        commit_group j
          [ session (i mod 3) ~consumed:i ]
          (if i mod 7 = 0 then [ (i + 1) mod 3 ] else [])
          [ batch i ]
      done;
      Alcotest.(check bool) "compaction fired" true
        (Shard_journal.compactions j > 0);
      let live = session_ids j in
      let r = Shard_journal.start ~resume:true ~batch_history:4 ~context path in
      Alcotest.(check (list int)) "live set survives compaction" live
        (session_ids r);
      Alcotest.(check (list int)) "history window survives compaction"
        [ 196; 197; 198; 199 ] (batch_ids r))

let () =
  Alcotest.run "shard_journal"
    [
      ( "shard_journal",
        [
          Alcotest.test_case "roundtrip" `Quick test_roundtrip;
          Alcotest.test_case "latest record wins" `Quick test_latest_record_wins;
          Alcotest.test_case "uncommitted group dropped" `Quick
            test_uncommitted_group_dropped;
          Alcotest.test_case "torn tail dropped" `Quick test_torn_tail_dropped;
          Alcotest.test_case "context mismatch" `Quick test_context_mismatch;
          Alcotest.test_case "fresh start truncates" `Quick
            test_fresh_start_truncates;
          Alcotest.test_case "batch history bounded" `Quick
            test_batch_history_bounded;
          Alcotest.test_case "compaction invisible" `Quick
            test_compaction_invisible;
        ] );
    ]
