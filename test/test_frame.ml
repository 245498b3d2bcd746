(* The serve wire codec: frames must roundtrip bit-exactly (scores
   and thresholds travel as bits), decode incrementally from
   arbitrarily fragmented input, and reject malformed input with
   Parse_error — never a silent misparse, and a foreign first byte as
   soon as it arrives. *)

open Seqdiv_stream
open Seqdiv_test_support

let bits = Int64.bits_of_float

let incident_equal (a : Frame.incident) (b : Frame.incident) =
  a.Frame.first_start = b.Frame.first_start
  && a.Frame.last_start = b.Frame.last_start
  && a.Frame.cover_from = b.Frame.cover_from
  && a.Frame.cover_to = b.Frame.cover_to
  && a.Frame.alarms = b.Frame.alarms
  && Int64.equal (bits a.Frame.peak_score) (bits b.Frame.peak_score)

let incident_event_equal a b =
  match (a, b) with
  | ( Frame.Opened { session = sa; position = pa },
      Frame.Opened { session = sb; position = pb } ) ->
      sa = sb && pa = pb
  | ( Frame.Closed { session = sa; incident = ia },
      Frame.Closed { session = sb; incident = ib } ) ->
      sa = sb && incident_equal ia ib
  | _ -> false

let event_equal a b =
  match (a, b) with
  | ( Frame.Data { session = sa; symbols = xa },
      Frame.Data { session = sb; symbols = xb } ) ->
      sa = sb && xa = xb
  | ( Frame.End_of_session { session = sa },
      Frame.End_of_session { session = sb } ) ->
      sa = sb
  | _ -> false

let request_equal a b =
  match (a, b) with
  | ( Frame.Batch { id = ia; events = ea },
      Frame.Batch { id = ib; events = eb } ) ->
      ia = ib
      && List.length ea = List.length eb
      && List.for_all2 event_equal ea eb
  | Frame.Stats_request, Frame.Stats_request
  | Frame.Health_request, Frame.Health_request
  | Frame.Drain_request, Frame.Drain_request
  | Frame.Quit, Frame.Quit ->
      true
  | _ -> false

(* Every field, the threshold by its bits: structural equality would
   call -0.0 and 0.0 the same threshold. *)
let shard_stats_equal (a : Frame.shard_stats) (b : Frame.shard_stats) =
  a.Frame.shard = b.Frame.shard
  && a.Frame.sessions_resident = b.Frame.sessions_resident
  && a.Frame.events = b.Frame.events
  && a.Frame.symbols = b.Frame.symbols
  && a.Frame.batches = b.Frame.batches
  && a.Frame.rejected = b.Frame.rejected
  && a.Frame.queue_depth = b.Frame.queue_depth
  && a.Frame.bytes_resident = b.Frame.bytes_resident
  && a.Frame.busy_ns = b.Frame.busy_ns
  && a.Frame.p50_batch_ns = b.Frame.p50_batch_ns
  && a.Frame.p99_batch_ns = b.Frame.p99_batch_ns
  && a.Frame.restarts = b.Frame.restarts
  && a.Frame.alive = b.Frame.alive
  && a.Frame.degraded = b.Frame.degraded
  && a.Frame.retry_after_ms = b.Frame.retry_after_ms
  && a.Frame.windows = b.Frame.windows
  && a.Frame.alarms = b.Frame.alarms
  && Int64.equal (bits a.Frame.threshold) (bits b.Frame.threshold)

let shard_rows_equal a b =
  List.length a = List.length b && List.for_all2 shard_stats_equal a b

let response_equal a b =
  match (a, b) with
  | ( Frame.Ack { id = ia; shard = sa; events = ea; incidents = xa },
      Frame.Ack { id = ib; shard = sb; events = eb; incidents = xb } ) ->
      ia = ib && sa = sb && ea = eb
      && List.length xa = List.length xb
      && List.for_all2 incident_event_equal xa xb
  | ( Frame.Rejected { id = ia; retry_after_ms = ra },
      Frame.Rejected { id = ib; retry_after_ms = rb } ) ->
      ia = ib && ra = rb
  | ( Frame.Failed { id = ia; shard = sa; events = ea; reason = ra },
      Frame.Failed { id = ib; shard = sb; events = eb; reason = rb } ) ->
      ia = ib && sa = sb && ea = eb && ra = rb
  | Frame.Stats a, Frame.Stats b -> shard_rows_equal a b
  | Frame.Health a, Frame.Health b ->
      a.Frame.connections = b.Frame.connections
      && a.Frame.evictions = b.Frame.evictions
      && a.Frame.draining = b.Frame.draining
      && shard_rows_equal a.Frame.shards b.Frame.shards
  | Frame.Drained { batches = a }, Frame.Drained { batches = b } -> a = b
  | Frame.Error_msg a, Frame.Error_msg b -> a = b
  | _ -> false

(* Feed the encoded frame back through a reader, [step] bytes at a
   time, and return every decoded frame. *)
let decode_all next ~step buf =
  let r = Frame.reader () in
  let s = Buffer.to_bytes buf in
  let n = Bytes.length s in
  let pos = ref 0 in
  while !pos < n do
    let len = Stdlib.min step (n - !pos) in
    Frame.feed_bytes r s ~pos:!pos ~len;
    pos := !pos + len
  done;
  let decoded = ref [] in
  let rec drain () =
    match next r with
    | Some frame ->
        decoded := frame :: !decoded;
        drain ()
    | None -> ()
  in
  drain ();
  List.rev !decoded

let roundtrip_requests ~step requests =
  let buf = Buffer.create 256 in
  List.iter (fun q -> Frame.write_request buf Frame.Binary q) requests;
  let decoded = decode_all Frame.next_request ~step buf in
  Alcotest.(check int) "all frames decoded" (List.length requests)
    (List.length decoded);
  List.iter2
    (fun a b -> Alcotest.(check bool) "request roundtrips" true (request_equal a b))
    requests decoded

let roundtrip_responses ~step responses =
  let buf = Buffer.create 256 in
  List.iter (fun r -> Frame.write_response buf Frame.Binary r) responses;
  let decoded = decode_all Frame.next_response ~step buf in
  Alcotest.(check int) "all frames decoded" (List.length responses)
    (List.length decoded);
  List.iter2
    (fun a b ->
      Alcotest.(check bool) "response roundtrips" true (response_equal a b))
    responses decoded

let sample_incident =
  {
    Frame.first_start = 95;
    last_start = 103;
    cover_from = 95;
    cover_to = 108;
    alarms = 4;
    peak_score = 0.1;
  }

let sample_requests =
  [
    Frame.Batch
      {
        id = 0;
        events =
          [
            Frame.Data { session = 0; symbols = [| 0; 7; 254 |] };
            Frame.Data { session = 123456789; symbols = [| 1 |] };
            Frame.End_of_session { session = 0 };
          ];
      };
    Frame.Batch
      { id = 42; events = [ Frame.Data { session = 7; symbols = [||] } ] };
    Frame.Stats_request;
    Frame.Health_request;
    Frame.Drain_request;
    Frame.Quit;
  ]

(* Every field distinct, so a codec that swaps two of them fails. *)
let sample_stats =
  {
    Frame.shard = 0;
    sessions_resident = 12;
    events = 1000;
    symbols = 64000;
    batches = 4;
    rejected = 1;
    queue_depth = 2;
    bytes_resident = 4096;
    busy_ns = 123456789;
    p50_batch_ns = 440_000;
    p99_batch_ns = 6_572_000;
    restarts = 2;
    alive = true;
    degraded = false;
    retry_after_ms = 11;
    windows = 900;
    alarms = 17;
    threshold = 1.0 /. 3.0;
  }

let sample_responses =
  [
    Frame.Ack
      {
        id = 42;
        shard = 3;
        events = 17;
        incidents =
          [
            Frame.Opened { session = 9; position = 95 };
            Frame.Closed { session = 9; incident = sample_incident };
          ];
      };
    Frame.Rejected { id = 43; retry_after_ms = 5 };
    Frame.Failed
      {
        id = 44;
        shard = 0;
        events = 3;
        reason = "Deadline.Exceeded(budget=1ms)";
      };
    Frame.Stats [ sample_stats ];
    Frame.Health
      {
        Frame.shards =
          [
            { sample_stats with Frame.restarts = 1; threshold = 2.75 };
            {
              sample_stats with
              Frame.shard = 1;
              alive = false;
              degraded = true;
              windows = 0;
              alarms = 0;
              threshold = -0.0;
            };
          ];
        connections = 4;
        evictions = 1;
        draining = true;
      };
    Frame.Drained { batches = 512 };
    Frame.Error_msg "frame: unknown tag 'x'";
  ]

let test_roundtrips () =
  List.iter
    (fun step ->
      roundtrip_requests ~step sample_requests;
      roundtrip_responses ~step sample_responses)
    [ 1; 3; 4096 ]

let test_score_bits_roundtrip () =
  (* Awkward peak scores must survive the wire bit-for-bit. *)
  List.iter
    (fun score ->
      let incident = { sample_incident with Frame.peak_score = score } in
      roundtrip_responses ~step:7
        [
          Frame.Ack
            {
              id = 1;
              shard = 0;
              events = 1;
              incidents = [ Frame.Closed { session = 0; incident } ];
            };
        ])
    [ 0.1; 1.0 /. 3.0; 1e-300; Float.max_float; 0.0; -0.0 ]

let expect_parse_error name f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Parse_error" name
  | exception Parse_error.Error _ -> ()

let feed_string next s =
  let r = Frame.reader () in
  let b = Bytes.of_string s in
  Frame.feed_bytes r b ~pos:0 ~len:(Bytes.length b);
  next r

(* Raw payload builders: one little-endian 64-bit word, and a complete
   frame around a payload. *)
let i64 v =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int v);
  Bytes.to_string b

let frame payload =
  let b = Bytes.create 5 in
  Bytes.set b 0 Frame.binary_magic;
  Bytes.set_int32_le b 1 (Int32.of_int (String.length payload));
  Bytes.to_string b ^ payload

let test_malformed () =
  let bad name payload =
    expect_parse_error name (fun () ->
        feed_string Frame.next_request (frame payload))
  in
  expect_parse_error "garbage first byte" (fun () ->
      feed_string Frame.next_request "hello\n");
  (* A lone byte other than the magic is refused at once, before the
     reader waits for a length. *)
  (match feed_string Frame.next_request "{" with
  | _ -> Alcotest.fail "a lone '{' was not refused"
  | exception Parse_error.Error msg ->
      Alcotest.(check string) "names the byte" "Frame: bad frame magic 0x7b" msg);
  expect_parse_error "a JSON line" (fun () ->
      feed_string Frame.next_request "{\"type\":\"stats\"}\n");
  (* an oversized length prefix fails fast, before any payload *)
  expect_parse_error "oversized frame" (fun () ->
      let b = Bytes.create 5 in
      Bytes.set b 0 Frame.binary_magic;
      Bytes.set_int32_le b 1 0x7fff_ffffl;
      let r = Frame.reader () in
      Frame.feed_bytes r b ~pos:0 ~len:5;
      Frame.next_request r);
  (* The raw builders make valid frames, so each case below fails on its
     own defect, not on the framing. *)
  let valid = frame ("B" ^ i64 7 ^ i64 1 ^ "e" ^ i64 3) in
  (match feed_string Frame.next_request valid with
  | Some (Frame.Batch { id = 7; events = [ Frame.End_of_session { session } ] })
    ->
      Alcotest.(check int) "valid raw batch" 3 session
  | _ -> Alcotest.fail "the raw frame builder must build a valid batch");
  bad "batch with zero events" ("B" ^ i64 0 ^ i64 0);
  bad "symbol byte 255" ("B" ^ i64 0 ^ i64 1 ^ "d" ^ i64 0 ^ i64 1 ^ "\255");
  bad "unknown request tag" "x";
  bad "unknown event tag" ("B" ^ i64 0 ^ i64 1 ^ "z" ^ i64 0);
  bad "trailing payload bytes" "S\000";
  bad "event count larger than the payload"
    ("B" ^ i64 0 ^ i64 1000 ^ "e" ^ i64 0);
  bad "symbol count larger than the payload"
    ("B" ^ i64 0 ^ i64 1 ^ "d" ^ i64 0 ^ i64 64 ^ "\001");
  bad "truncated payload" ("B" ^ "\000\000");
  bad "negative batch id" ("B" ^ i64 (-1) ^ i64 1 ^ "e" ^ i64 0);
  expect_parse_error "health flag not 0 or 1" (fun () ->
      feed_string Frame.next_response
        (frame ("h" ^ i64 0 ^ i64 0 ^ i64 2 ^ i64 0)))

let test_write_validation () =
  let buf = Buffer.create 16 in
  Alcotest.check_raises "empty batch refused"
    (Invalid_argument "Frame: a batch must carry at least one event")
    (fun () ->
      Frame.write_request buf Frame.Binary (Frame.Batch { id = 0; events = [] }));
  (match
     Frame.write_request buf Frame.Binary
       (Frame.Batch
          { id = 0; events = [ Frame.Data { session = 0; symbols = [| 255 |] } ] })
   with
  | () -> Alcotest.fail "symbol 255 accepted"
  | exception Invalid_argument _ -> ());
  match
    Frame.write_request buf Frame.Binary
      (Frame.Batch
         { id = -1; events = [ Frame.Data { session = 0; symbols = [| 1 |] } ] })
  with
  | () -> Alcotest.fail "negative id accepted"
  | exception Invalid_argument _ -> ()

(* The batch encoder's bytes, pinned against the raw builders: tag, id,
   event count, then per event its tag, session id and (for data) the
   symbol count and one byte per symbol.  The id sits above 2^32, so a
   32-bit write of it would show. *)
let test_wire_pin () =
  let id = (1 lsl 32) + 5 in
  let batch =
    Frame.Batch
      {
        id;
        events =
          [
            Frame.Data { session = 9; symbols = [| 0; 7; 254 |] };
            Frame.End_of_session { session = (1 lsl 33) + 1 };
          ];
      }
  in
  let expected =
    frame
      ("B" ^ i64 id ^ i64 2 ^ "d" ^ i64 9 ^ i64 3 ^ "\000\007\254" ^ "e"
     ^ i64 ((1 lsl 33) + 1))
  in
  let buf = Buffer.create 16 in
  Frame.write_request buf Frame.Binary batch;
  Alcotest.(check string) "batch bytes" expected (Buffer.contents buf);
  (* A refused write leaves the buffer as it found it. *)
  let refused name message events =
    let buf = Buffer.create 16 in
    Buffer.add_string buf "kept";
    (match Frame.write_request buf Frame.Binary (Frame.Batch { id; events }) with
    | () -> Alcotest.failf "%s: accepted" name
    | exception Invalid_argument msg ->
        Alcotest.(check string) (name ^ ": message") message msg);
    Alcotest.(check string) (name ^ ": nothing appended") "kept"
      (Buffer.contents buf)
  in
  let ok = Frame.Data { session = 1; symbols = Array.make 300 3 } in
  refused "bad symbol in the last event" "Frame: symbol 255 out of range 0..254"
    [
      ok;
      Frame.End_of_session { session = 2 };
      Frame.Data { session = 3; symbols = [| 1; 2; 255 |] };
    ];
  refused "symbol -1" "Frame: symbol -1 out of range 0..254"
    [ ok; Frame.Data { session = 3; symbols = [| 4; -1; 4 |] } ];
  refused "negative session in data" "Frame: negative session id: -5"
    [ ok; Frame.Data { session = -5; symbols = [| 1 |] } ];
  refused "negative session at end of session" "Frame: negative session id: -6"
    [ ok; Frame.End_of_session { session = -6 } ]

let test_shard_of_session () =
  Alcotest.(check int) "one shard takes all" 0
    (Frame.shard_of_session ~shards:1 123);
  for session = 0 to 999 do
    let shard = Frame.shard_of_session ~shards:4 session in
    Alcotest.(check bool) "in range" true (shard >= 0 && shard < 4);
    Alcotest.(check int) "deterministic" shard
      (Frame.shard_of_session ~shards:4 session)
  done;
  (* the hash must actually spread consecutive ids *)
  let counts = Array.make 4 0 in
  for session = 0 to 999 do
    let shard = Frame.shard_of_session ~shards:4 session in
    counts.(shard) <- counts.(shard) + 1
  done;
  Array.iter
    (fun c -> Alcotest.(check bool) "no starved shard" true (c > 100))
    counts;
  match Frame.shard_of_session ~shards:0 1 with
  | _ -> Alcotest.fail "shards=0 accepted"
  | exception Invalid_argument _ -> ()

let test_render_stable () =
  Alcotest.(check string) "opened line" "session 9 opened 95"
    (Frame.render_incident_event (Frame.Opened { session = 9; position = 95 }));
  Alcotest.(check string) "closed line"
    (Printf.sprintf
       "session 9 closed first=95 last=103 cover=95..108 alarms=4 peak=%016Lx"
       (Int64.bits_of_float 0.1))
    (Frame.render_incident_event
       (Frame.Closed { session = 9; incident = sample_incident }))

(* {1 Property: arbitrary batches roundtrip} *)

let gen_event =
  QCheck.Gen.(
    frequency
      [
        ( 5,
          map2
            (fun session symbols ->
              Frame.Data { session; symbols = Array.of_list symbols })
            (int_bound 10_000)
            (list_size (0 -- 40) (int_bound 254)) );
        (1, map (fun session -> Frame.End_of_session { session }) (int_bound 10_000));
      ])

let gen_batch =
  QCheck.Gen.(
    map2
      (fun id events -> Frame.Batch { id; events })
      (int_bound 1_000_000)
      (list_size (1 -- 20) gen_event))

let arbitrary_batch = QCheck.make gen_batch

let prop_roundtrip =
  qcheck ~count:100 "binary batches roundtrip" arbitrary_batch (fun batch ->
      let buf = Buffer.create 256 in
      Frame.write_request buf Frame.Binary batch;
      match decode_all Frame.next_request ~step:5 buf with
      | [ decoded ] -> request_equal batch decoded
      | _ -> false)

let () =
  Alcotest.run "frame"
    [
      ( "frame",
        [
          Alcotest.test_case "roundtrips" `Quick test_roundtrips;
          Alcotest.test_case "score bits" `Quick test_score_bits_roundtrip;
          Alcotest.test_case "malformed" `Quick test_malformed;
          Alcotest.test_case "write validation" `Quick test_write_validation;
          Alcotest.test_case "wire pin" `Quick test_wire_pin;
          Alcotest.test_case "shard routing" `Quick test_shard_of_session;
          Alcotest.test_case "stable rendering" `Quick test_render_stable;
          prop_roundtrip;
        ] );
    ]
