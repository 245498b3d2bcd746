(* On-disk format pins for both journals.  Each fixture below is the
   exact file one of the journals wrote for a fixed script of calls:
   a grid journal (header rewrite, an append, a resumed append, a
   shadowing re-record) and a shard journal (static and adaptive
   sessions, ends, batches carrying incidents, a resume and a threshold
   compaction).  A fixture must resume to the state its script implies,
   and replaying the script must write it again byte for byte — so a
   change to either journal's layout, digest, flush-mode decisions or
   compaction trigger shows up here, and journals already on disk keep
   resuming. *)

open Seqdiv_stream
open Seqdiv_core

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let with_path f =
  let path = Filename.temp_file "seqdiv-journal-format" ".journal" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

(* --- grid journal -------------------------------------------------------- *)

let grid_context = "seed=42 alphabet=8 train_len=150000 format-fixture"

let cell ?(seed = 42) detector window anomaly_size outcome =
  { Journal.seed; detector; window; anomaly_size; outcome }

(* Three flushes: the first writes the header (a rewrite), the second
   appends and re-records a key, the third appends after a resume. *)
let grid_flushes =
  [
    [
      cell "stide" 2 2 Outcome.Blind;
      cell "stide" 3 2 (Outcome.Capable 1.0);
      cell "markov" 2 2 (Outcome.Weak 0.3125);
    ];
    [
      cell "markov" 3 2 (Outcome.Capable 0.875);
      cell "stide" 2 2 (Outcome.Weak 0.1);
    ];
    [
      cell "lnb" 2 2 (Outcome.Weak 0.0625);
      cell ~seed:43 "nn" 4 3 (Outcome.Capable 0.99);
    ];
  ]

let write_grid path =
  let flush j cells =
    List.iter (Journal.record j) cells;
    Journal.flush j
  in
  match grid_flushes with
  | [ first; second; third ] ->
      let j = Journal.start ~context:grid_context path in
      flush j first;
      flush j second;
      let j = Journal.start ~resume:true ~context:grid_context path in
      flush j third;
      j
  | _ -> Alcotest.fail "grid script needs three flushes"

let grid_fixture =
  {|seqdiv-journal v2
context seed=42 alphabet=8 train_len=150000 format-fixture
cell 42 stide 2 2 blind 0000000000000000 92ff8dadda491161
cell 42 stide 3 2 capable 3ff0000000000000 e01a84a0e5fff252
cell 42 markov 2 2 weak 3fd4000000000000 e7d10dfb5f95b272
cell 42 markov 3 2 capable 3fec000000000000 a603504690ab68cd
cell 42 stide 2 2 weak 3fb999999999999a ce618b6740cd152c
cell 42 lnb 2 2 weak 3fb0000000000000 756eaaa23b434afe
cell 43 nn 4 3 capable 3fefae147ae147ae c997fa1c006014c9
|}

let show_entry (e : Journal.entry) =
  Printf.sprintf "%d %s %d %d %s %h" e.Journal.seed e.Journal.detector
    e.Journal.window e.Journal.anomaly_size
    (Outcome.to_string e.Journal.outcome)
    (Outcome.max_response e.Journal.outcome)

let test_grid_resumes () =
  with_path (fun path ->
      write_file path grid_fixture;
      let j = Journal.start ~resume:true ~context:grid_context path in
      (* Absorption order, shadowed records included: the fixture holds
         every recorded cell because no flush compacted. *)
      Alcotest.(check (list string))
        "entries" (List.map show_entry (List.concat grid_flushes))
        (List.map show_entry (Journal.entries j));
      Alcotest.(check int) "distinct cells" 6 (Journal.recovered j);
      Alcotest.(check int) "clean file" 0 (Journal.dropped_lines j);
      Alcotest.(check (option string))
        "newest record of a re-recorded key"
        (Some (Outcome.to_string (Outcome.Weak 0.1)))
        (Option.map Outcome.to_string
           (Journal.lookup j ~seed:42 ~detector:"stide" ~window:2
              ~anomaly_size:2));
      (* A parent-written file is appendable. *)
      Journal.record j (cell "tstide" 2 2 Outcome.Blind);
      Journal.flush j;
      Alcotest.(check (pair int int)) "appends, rewrites" (1, 0)
        (Journal.appends j, Journal.compactions j))

let test_grid_bytes () =
  with_path (fun path ->
      let j = write_grid path in
      Alcotest.(check (pair int int)) "resumed handle: appends, rewrites"
        (1, 0)
        (Journal.appends j, Journal.compactions j);
      Alcotest.(check string) "bytes" grid_fixture (read_file path))

(* --- shard journal ------------------------------------------------------- *)

let shard_context =
  "serve model=stide depth=6 states=276 threshold=3ff0000000000000 \
   shards=2 shard=1 format-fixture"

let batch_history = 4

type op =
  | S of Shard_journal.session_state
  | E of int
  | B of Shard_journal.batch_record

let incident k =
  {
    Frame.first_start = 10 * k;
    last_start = (10 * k) + 4;
    cover_from = 10 * k;
    cover_to = (10 * k) + 9;
    alarms = 1 + (k mod 3);
    peak_score = 0.125 *. float_of_int k;
  }

(* Commit group [i]: sessions 1 (static) and 2 (adaptive) every time,
   session 3 ended every fourth group and back the next, and a batch
   whose incidents alternate between openings and closings (every
   fifth batch carries none). *)
let shard_group i =
  let static id =
    {
      Shard_journal.js_session = id;
      js_consumed = (100 * i) + id;
      js_state = ((7 * i) + id) mod 276;
      js_open = (if i mod 3 = 1 then Some (incident i) else None);
      js_adaptive = None;
    }
  in
  let adaptive id =
    {
      (static id) with
      Shard_journal.js_adaptive =
        Some
          (Printf.sprintf "at1:%016Lx:%d:%d"
             (Int64.bits_of_float (0.5 +. float_of_int i))
             (10 * i) i);
    }
  in
  let incidents =
    if i mod 5 = 4 then []
    else if i mod 2 = 0 then
      [ Frame.Opened { session = 1; position = 10 * i } ]
    else
      [
        Frame.Closed { session = 2; incident = incident i };
        Frame.Opened { session = 3; position = (10 * i) + 2 };
      ]
  in
  [ S (static 1); S (adaptive 2) ]
  @ (if i mod 4 = 3 then [ E 3 ] else [ S (static 3) ])
  @ [
      B
        {
          Shard_journal.jb_id = i;
          jb_shard = 1;
          jb_events = 32 + i;
          jb_incidents = incidents;
        };
    ]

let shard_groups = 16
let shard_resume_at = 5

let commit j group =
  List.iter
    (function
      | S s -> Shard_journal.record_session j s
      | E session -> Shard_journal.record_end j ~session
      | B b -> Shard_journal.record_batch j b)
    group;
  Shard_journal.commit j

(* Groups before [shard_resume_at] go through one handle, the rest
   through a handle resumed from the file. *)
let write_shard path =
  let j = ref (Shard_journal.start ~batch_history ~context:shard_context path) in
  for i = 0 to shard_groups - 1 do
    if i = shard_resume_at then
      j :=
        Shard_journal.start ~resume:true ~batch_history ~context:shard_context
          path;
    commit !j (shard_group i)
  done;
  !j

(* The state the script implies, computed without the journal: newest
   record per live session, ended sessions removed, the last
   [batch_history] batches. *)
let shard_model groups =
  let live = Hashtbl.create 8 and batches = ref [] in
  List.iter
    (List.iter (function
      | S s -> Hashtbl.replace live s.Shard_journal.js_session s
      | E session -> Hashtbl.remove live session
      | B b -> batches := !batches @ [ b ]))
    groups;
  let sessions =
    List.sort compare (List.of_seq (Hashtbl.to_seq_values live))
  in
  let n = List.length !batches in
  (sessions, List.filteri (fun k _ -> k >= n - batch_history) !batches)

let shard_fixture =
  {|seqdiv-shard-journal v1
context serve model=stide depth=6 states=276 threshold=3ff0000000000000 shards=2 shard=1 format-fixture
s 1 1101 78 - b773a83a6a3e2176
s 2 1102 79 - at1:4027000000000000:110:11 1e4b7549b90c5820
b 8 1 40 1 o:1:80 939d86573e7ba65d
b 9 1 41 0 ef6bbe591f370390
b 10 1 42 1 o:1:100 1f12f4cdc124ad0f
b 11 1 43 2 c:2:110:114:110:119:3:3ff6000000000000 o:3:112 8c8acc55236f7f23
k 6 3cde8f1935936f38
s 1 1201 85 - 290a73665119d4b9
s 2 1202 86 - at1:4029000000000000:120:12 4c01e32f590b57ef
s 3 1203 87 - b6ba969ebfe8014f
b 12 1 44 1 o:1:120 e5fb37eddfd1ba91
k 4 3cde91193593729e
s 1 1301 92 130:134:130:139:2:3ffa000000000000 d5165326085d87ac
s 2 1302 93 130:134:130:139:2:3ffa000000000000 at1:402b000000000000:130:13 48aac488cf4b3fcd
s 3 1303 94 130:134:130:139:2:3ffa000000000000 24e02d6a7fa237ea
b 13 1 45 2 c:2:130:134:130:139:2:3ffa000000000000 o:3:132 0273b42dfec58c85
k 4 3cde91193593729e
s 1 1401 99 - d8209694db208d72
s 2 1402 100 - at1:402d000000000000:140:14 e9789b64cf8a52ff
s 3 1403 101 - 0e568289fc1c0b2a
b 14 1 46 0 f91e1af52133f5d5
k 4 3cde91193593729e
s 1 1501 106 - 07b1f9619794d584
s 2 1502 107 - at1:402f000000000000:150:15 510f72183f1ca69f
e 3 c399be18f0e35ac9
b 15 1 47 2 c:2:150:154:150:159:1:3ffe000000000000 o:3:152 ce9e0d1e6e1109f8
k 4 3cde91193593729e
|}

let sessions_t =
  Alcotest.testable
    (fun ppf (s : Shard_journal.session_state) ->
      Format.fprintf ppf "s%d/%d" s.Shard_journal.js_session
        s.Shard_journal.js_consumed)
    ( = )

let batches_t =
  Alcotest.testable
    (fun ppf (b : Shard_journal.batch_record) ->
      Format.fprintf ppf "b%d" b.Shard_journal.jb_id)
    ( = )

let test_shard_resumes () =
  with_path (fun path ->
      write_file path shard_fixture;
      let j =
        Shard_journal.start ~resume:true ~batch_history ~context:shard_context
          path
      in
      let sessions, batches =
        shard_model (List.init shard_groups shard_group)
      in
      Alcotest.(check (list sessions_t)) "sessions" sessions
        (Shard_journal.sessions j);
      Alcotest.(check (list batches_t)) "batches" batches
        (Shard_journal.batches j);
      Alcotest.(check int) "clean file" 0 (Shard_journal.dropped_lines j);
      (* A parent-written file is appendable. *)
      commit j (shard_group shard_groups);
      Alcotest.(check (pair int int)) "appends, rewrites" (1, 0)
        (Shard_journal.appends j, Shard_journal.compactions j))

let test_shard_bytes () =
  with_path (fun path ->
      let j = write_shard path in
      Alcotest.(check bool) "the resumed handle compacted" true
        (Shard_journal.compactions j > 0 && Shard_journal.appends j > 0);
      Alcotest.(check string) "bytes" shard_fixture (read_file path))

let () =
  Alcotest.run "journal-format"
    [
      ( "pin",
        [
          Alcotest.test_case "grid fixture resumes" `Quick test_grid_resumes;
          Alcotest.test_case "grid replay is byte-identical" `Quick
            test_grid_bytes;
          Alcotest.test_case "shard fixture resumes" `Quick test_shard_resumes;
          Alcotest.test_case "shard replay is byte-identical" `Quick
            test_shard_bytes;
        ] );
    ]
