(* The serve wire codec: binary and ndjson frames must roundtrip
   bit-exactly (scores travel as bits), decode incrementally from
   arbitrarily fragmented input, sniff their encoding from the first
   byte, and reject malformed input with Parse_error — never a silent
   misparse. *)

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

let shard_health_equal (a : Frame.shard_health) (b : Frame.shard_health) =
  a.Frame.h_shard = b.Frame.h_shard
  && a.Frame.h_alive = b.Frame.h_alive
  && a.Frame.h_degraded = b.Frame.h_degraded
  && a.Frame.h_restarts = b.Frame.h_restarts
  && a.Frame.h_queue_depth = b.Frame.h_queue_depth
  && a.Frame.h_retry_after_ms = b.Frame.h_retry_after_ms

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
  | Frame.Stats a, Frame.Stats b -> a = b
  | Frame.Health a, Frame.Health b ->
      a.Frame.connections = b.Frame.connections
      && a.Frame.evictions = b.Frame.evictions
      && a.Frame.draining = b.Frame.draining
      && List.length a.Frame.shards_health = List.length b.Frame.shards_health
      && List.for_all2 shard_health_equal a.Frame.shards_health
           b.Frame.shards_health
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
  (List.rev !decoded, Frame.reader_encoding r)

let roundtrip_requests encoding ~step requests =
  let buf = Buffer.create 256 in
  List.iter (fun q -> Frame.write_request buf encoding q) requests;
  let decoded, sniffed = decode_all Frame.next_request ~step buf in
  Alcotest.(check bool) "encoding sniffed" true (sniffed = Some encoding);
  Alcotest.(check int) "all frames decoded" (List.length requests)
    (List.length decoded);
  List.iter2
    (fun a b -> Alcotest.(check bool) "request roundtrips" true (request_equal a b))
    requests decoded

let roundtrip_responses encoding ~step responses =
  let buf = Buffer.create 256 in
  List.iter (fun r -> Frame.write_response buf encoding r) responses;
  let decoded, _ = decode_all Frame.next_response ~step buf in
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
    Frame.Stats
      [
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
          degraded = false;
          retry_after_ms = 11;
          windows = 900;
          alarms = 17;
          threshold = 1.0 /. 3.0;
        };
      ];
    Frame.Health
      {
        Frame.shards_health =
          [
            {
              Frame.h_shard = 0;
              h_alive = true;
              h_degraded = false;
              h_restarts = 1;
              h_queue_depth = 3;
              h_retry_after_ms = 12;
              h_windows = 450;
              h_alarms = 9;
              h_threshold = 2.75;
            };
            {
              Frame.h_shard = 1;
              h_alive = false;
              h_degraded = true;
              h_restarts = 3;
              h_queue_depth = 0;
              h_retry_after_ms = 5;
              h_windows = 0;
              h_alarms = 0;
              h_threshold = -0.0;
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
    (fun encoding ->
      List.iter
        (fun step ->
          roundtrip_requests encoding ~step sample_requests;
          roundtrip_responses encoding ~step sample_responses)
        [ 1; 3; 4096 ])
    [ Frame.Binary; Frame.Ndjson ]

let test_score_bits_roundtrip () =
  (* ndjson carries the peak score as exact bits alongside the human
     float; awkward values must survive both formats bit-for-bit. *)
  List.iter
    (fun encoding ->
      List.iter
        (fun score ->
          let incident = { sample_incident with Frame.peak_score = score } in
          roundtrip_responses encoding ~step:7
            [
              Frame.Ack
                {
                  id = 1;
                  shard = 0;
                  events = 1;
                  incidents = [ Frame.Closed { session = 0; incident } ];
                };
            ])
        [ 0.1; 1.0 /. 3.0; 1e-300; Float.max_float; 0.0; -0.0 ])
    [ Frame.Binary; Frame.Ndjson ]

let test_sniffing () =
  let r = Frame.reader () in
  Alcotest.(check bool) "no encoding before first byte" true
    (Frame.reader_encoding r = None);
  let buf = Buffer.create 16 in
  Frame.write_request buf Frame.Ndjson Frame.Quit;
  let s = Buffer.to_bytes buf in
  Frame.feed_bytes r s ~pos:0 ~len:1;
  Alcotest.(check bool) "'{' sniffs ndjson" true
    (Frame.reader_encoding r = Some Frame.Ndjson);
  let r2 = Frame.reader () in
  let buf2 = Buffer.create 16 in
  Frame.write_request buf2 Frame.Binary Frame.Quit;
  let s2 = Buffer.to_bytes buf2 in
  Alcotest.(check char) "binary magic leads" Frame.binary_magic (Bytes.get s2 0);
  Frame.feed_bytes r2 s2 ~pos:0 ~len:1;
  Alcotest.(check bool) "magic sniffs binary" true
    (Frame.reader_encoding r2 = Some Frame.Binary)

let expect_parse_error name f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Parse_error" name
  | exception Parse_error.Error _ -> ()

let feed_string next s =
  let r = Frame.reader () in
  let b = Bytes.of_string s in
  Frame.feed_bytes r b ~pos:0 ~len:(Bytes.length b);
  next r

let test_malformed () =
  expect_parse_error "garbage first byte" (fun () ->
      feed_string Frame.next_request "hello\n");
  expect_parse_error "bad json" (fun () ->
      feed_string Frame.next_request "{\"type\": \n");
  expect_parse_error "unknown ndjson type" (fun () ->
      feed_string Frame.next_request "{\"type\":\"bogus\"}\n");
  (* an empty batch is rejected on decode, both formats *)
  expect_parse_error "empty ndjson batch" (fun () ->
      feed_string Frame.next_request "{\"type\":\"batch\",\"id\":0,\"events\":[]}\n");
  (* an oversized binary length prefix fails fast, before any payload *)
  expect_parse_error "oversized frame" (fun () ->
      let b = Bytes.create 5 in
      Bytes.set b 0 Frame.binary_magic;
      Bytes.set_int32_le b 1 0x7fff_ffffl;
      let r = Frame.reader () in
      Frame.feed_bytes r b ~pos:0 ~len:5;
      Frame.next_request r);
  (* symbol out of range in ndjson *)
  expect_parse_error "symbol 255" (fun () ->
      feed_string Frame.next_request
        "{\"type\":\"batch\",\"id\":0,\"events\":[{\"type\":\"data\",\"session\":0,\"symbols\":[255]}]}\n")

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

(* {1 Property: arbitrary batches roundtrip through both codecs} *)

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

let prop_roundtrip encoding name =
  qcheck ~count:100 name arbitrary_batch (fun batch ->
      let buf = Buffer.create 256 in
      Frame.write_request buf encoding batch;
      let decoded, _ = decode_all Frame.next_request ~step:5 buf in
      match decoded with
      | [ decoded ] -> request_equal batch decoded
      | _ -> false)

(* A long ndjson line that arrives in 64-byte chunks, decoded after
   every chunk as a connection reader does, must decode in time linear
   in its length: the newline search resumes where the last one
   stopped.  The cap is loose (about 0.1 s here); a reader that rescans
   the line from its start on every chunk needs several seconds. *)
let test_trickled_ndjson_line () =
  let events =
    List.init 128 (fun session ->
        Frame.Data
          { session; symbols = Array.init 1000 (fun i -> (i * 7) mod 255) })
  in
  let batch = Frame.Batch { id = 7; events } in
  let buf = Buffer.create (1 lsl 19) in
  Frame.write_request buf Frame.Ndjson batch;
  let line = Buffer.to_bytes buf in
  let n = Bytes.length line in
  Alcotest.(check bool) "a line of 400 KB or more" true (n >= 400_000);
  let whole, _ = decode_all Frame.next_request ~step:n buf in
  let r = Frame.reader () in
  let decoded = ref [] in
  let t0 = Sys.time () in
  let pos = ref 0 in
  while !pos < n do
    let len = Stdlib.min 64 (n - !pos) in
    Frame.feed_bytes r line ~pos:!pos ~len;
    pos := !pos + len;
    Option.iter (fun q -> decoded := q :: !decoded) (Frame.next_request r)
  done;
  let elapsed = Sys.time () -. t0 in
  (match (whole, !decoded) with
  | [ a ], [ b ] ->
      Alcotest.(check bool) "same request as fed whole" true
        (request_equal a b && request_equal batch b)
  | _ -> Alcotest.fail "expected exactly one request each way");
  if elapsed >= 1.0 then
    Alcotest.failf "trickled decode took %.2f s (cap 1 s)" elapsed

let () =
  Alcotest.run "frame"
    [
      ( "frame",
        [
          Alcotest.test_case "roundtrips" `Quick test_roundtrips;
          Alcotest.test_case "score bits" `Quick test_score_bits_roundtrip;
          Alcotest.test_case "sniffing" `Quick test_sniffing;
          Alcotest.test_case "malformed" `Quick test_malformed;
          Alcotest.test_case "write validation" `Quick test_write_validation;
          Alcotest.test_case "shard routing" `Quick test_shard_of_session;
          Alcotest.test_case "stable rendering" `Quick test_render_stable;
          Alcotest.test_case "trickled ndjson line" `Quick
            test_trickled_ndjson_line;
          prop_roundtrip Frame.Binary "binary batches roundtrip";
          prop_roundtrip Frame.Ndjson "ndjson batches roundtrip";
        ] );
    ]
