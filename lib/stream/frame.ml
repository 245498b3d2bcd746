(* Wire framing for the serve layer: a pure codec for length-prefixed
   binary frames with an incremental per-connection reader.  See
   frame.mli for the wire layout. *)

type event =
  | Data of { session : int; symbols : int array }
  | End_of_session of { session : int }

type incident = {
  first_start : int;
  last_start : int;
  cover_from : int;
  cover_to : int;
  alarms : int;
  peak_score : float;
}

type incident_event =
  | Opened of { session : int; position : int }
  | Closed of { session : int; incident : incident }

type shard_stats = {
  shard : int;
  sessions_resident : int;
  events : int;
  symbols : int;
  batches : int;
  rejected : int;
  queue_depth : int;
  bytes_resident : int;
  busy_ns : int;
  p50_batch_ns : int;
  p99_batch_ns : int;
  restarts : int;
  alive : bool;
  degraded : bool;
  retry_after_ms : int;
  windows : int;
  alarms : int;
  threshold : float;
}

type health = {
  shards : shard_stats list;
  connections : int;
  evictions : int;
  draining : bool;
}

type request =
  | Batch of { id : int; events : event list }
  | Stats_request
  | Health_request
  | Drain_request
  | Quit

type response =
  | Ack of {
      id : int;
      shard : int;
      events : int;
      incidents : incident_event list;
    }
  | Rejected of { id : int; retry_after_ms : int }
  | Failed of { id : int; shard : int; events : int; reason : string }
  | Stats of shard_stats list
  | Health of health
  | Drained of { batches : int }
  | Error_msg of string

(* --- session sharding --------------------------------------------------- *)

(* SplitMix64 finaliser: full-avalanche mixing so consecutive session
   ids spread evenly across shards. *)
let shard_of_session ~shards id =
  if shards <= 0 then
    (* lint: allow partiality — documented precondition *)
    invalid_arg (Printf.sprintf "Frame.shard_of_session: shards=%d" shards);
  let z =
    let open Seqdiv_util.Hash in
    splitmix64 (Int64.add (Int64.of_int id) golden_gamma)
  in
  Int64.to_int (Int64.rem (Int64.logand z Int64.max_int) (Int64.of_int shards))

(* --- validation --------------------------------------------------------- *)

let check_symbol s =
  if s < 0 || s > 254 then
    (* lint: allow partiality — documented precondition *)
    invalid_arg (Printf.sprintf "Frame: symbol %d out of range 0..254" s)

let check_nonneg name v =
  if v < 0 then
    (* lint: allow partiality — documented precondition *)
    invalid_arg (Printf.sprintf "Frame: negative %s: %d" name v)

(* --- encoding ----------------------------------------------------------- *)

type encoding = Binary

let binary_magic = '\xab'
let max_payload = 1 lsl 26 (* 64 MiB: no hostile length can force the
                              reader into an absurd allocation *)

let add_i64 b v = Buffer.add_int64_le b (Int64.of_int v)

let check_payload n =
  if n > max_payload then
    (* lint: allow partiality — documented precondition *)
    invalid_arg (Printf.sprintf "Frame: payload %d exceeds %d bytes" n
                   max_payload)

let add_payload out payload =
  let n = Buffer.length payload in
  check_payload n;
  Buffer.add_char out binary_magic;
  Buffer.add_int32_le out (Int32.of_int n);
  Buffer.add_buffer out payload

let add_string_field b s =
  add_i64 b (String.length s);
  Buffer.add_string b s

(* Payload bytes of [events] after the 17-byte batch header. *)
let rec events_size acc = function
  | [] -> acc
  | Data { symbols; _ } :: rest ->
      events_size (acc + 17 + Array.length symbols) rest
  | End_of_session _ :: rest -> events_size (acc + 9) rest

let check_event = function
  | Data { session; symbols } ->
      check_nonneg "session id" session;
      Array.iter check_symbol symbols
  | End_of_session { session } -> check_nonneg "session id" session

let set_i64 b pos v = Bytes.set_int64_le b pos (Int64.of_int v)

let put_symbols b pos symbols =
  for i = 0 to Array.length symbols - 1 do
    let s = Array.unsafe_get symbols i in
    if s < 0 || s > 254 then check_symbol s;
    Bytes.unsafe_set b (pos + i) (Char.unsafe_chr s)
  done

(* Write [events] from [pos]. *)
let rec put_events b pos = function
  | [] -> ()
  | Data { session; symbols } :: rest ->
      check_nonneg "session id" session;
      let n = Array.length symbols in
      Bytes.set b pos 'd';
      set_i64 b (pos + 1) session;
      set_i64 b (pos + 9) n;
      put_symbols b (pos + 17) symbols;
      put_events b (pos + 17 + n) rest
  | End_of_session { session } :: rest ->
      check_nonneg "session id" session;
      Bytes.set b pos 'e';
      set_i64 b (pos + 1) session;
      put_events b (pos + 9) rest

(* A batch frame in one pass: the payload size comes from the event
   list, then header and payload are written into one exactly sized
   buffer, each id and symbol checked as it is written, and the frame
   reaches [out] only once it is complete.  The checks run in the order
   of the format: batch id, event count, then each event's session id
   and symbols. *)
let add_batch out id events =
  check_nonneg "batch id" id;
  if events = [] then
    (* lint: allow partiality — documented precondition *)
    invalid_arg "Frame: a batch must carry at least one event";
  let size = events_size 17 events in
  if size > max_payload then begin
    (* Too large to write: report a bad id or symbol first, as a
       smaller batch would. *)
    List.iter check_event events;
    check_payload size
  end;
  let b = Bytes.create (5 + size) in
  Bytes.set b 0 binary_magic;
  Bytes.set_int32_le b 1 (Int32.of_int size);
  Bytes.set b 5 'B';
  set_i64 b 6 id;
  set_i64 b 14 (List.length events);
  put_events b 22 events;
  Buffer.add_bytes out b

let add_request out = function
  | Batch { id; events } -> add_batch out id events
  | Stats_request ->
      let b = Buffer.create 1 in
      Buffer.add_char b 'S';
      add_payload out b
  | Health_request ->
      let b = Buffer.create 1 in
      Buffer.add_char b 'H';
      add_payload out b
  | Drain_request ->
      let b = Buffer.create 1 in
      Buffer.add_char b 'D';
      add_payload out b
  | Quit ->
      let b = Buffer.create 1 in
      Buffer.add_char b 'Q';
      add_payload out b

let add_incident_event b = function
  | Opened { session; position } ->
      Buffer.add_char b 'o';
      add_i64 b session;
      add_i64 b position
  | Closed { session; incident } ->
      Buffer.add_char b 'c';
      add_i64 b session;
      add_i64 b incident.first_start;
      add_i64 b incident.last_start;
      add_i64 b incident.cover_from;
      add_i64 b incident.cover_to;
      add_i64 b incident.alarms;
      Buffer.add_int64_le b (Int64.bits_of_float incident.peak_score)

let add_shard_stats b s =
  add_i64 b s.shard;
  add_i64 b s.sessions_resident;
  add_i64 b s.events;
  add_i64 b s.symbols;
  add_i64 b s.batches;
  add_i64 b s.rejected;
  add_i64 b s.queue_depth;
  add_i64 b s.bytes_resident;
  add_i64 b s.busy_ns;
  add_i64 b s.p50_batch_ns;
  add_i64 b s.p99_batch_ns;
  add_i64 b s.restarts;
  add_i64 b (if s.alive then 1 else 0);
  add_i64 b (if s.degraded then 1 else 0);
  add_i64 b s.retry_after_ms;
  add_i64 b s.windows;
  add_i64 b s.alarms;
  Buffer.add_int64_le b (Int64.bits_of_float s.threshold)

let add_response out = function
  | Ack { id; shard; events; incidents } ->
      let b = Buffer.create 64 in
      Buffer.add_char b 'A';
      add_i64 b id;
      add_i64 b shard;
      add_i64 b events;
      add_i64 b (List.length incidents);
      List.iter (add_incident_event b) incidents;
      add_payload out b
  | Rejected { id; retry_after_ms } ->
      let b = Buffer.create 24 in
      Buffer.add_char b 'R';
      add_i64 b id;
      add_i64 b retry_after_ms;
      add_payload out b
  | Failed { id; shard; events; reason } ->
      let b = Buffer.create 64 in
      Buffer.add_char b 'F';
      add_i64 b id;
      add_i64 b shard;
      add_i64 b events;
      add_string_field b reason;
      add_payload out b
  | Stats shards ->
      let b = Buffer.create 256 in
      Buffer.add_char b 'T';
      add_i64 b (List.length shards);
      List.iter (add_shard_stats b) shards;
      add_payload out b
  | Health { shards; connections; evictions; draining } ->
      let b = Buffer.create 256 in
      Buffer.add_char b 'h';
      add_i64 b connections;
      add_i64 b evictions;
      add_i64 b (if draining then 1 else 0);
      add_i64 b (List.length shards);
      List.iter (add_shard_stats b) shards;
      add_payload out b
  | Drained { batches } ->
      let b = Buffer.create 16 in
      Buffer.add_char b 'd';
      add_i64 b batches;
      add_payload out b
  | Error_msg message ->
      let b = Buffer.create 64 in
      Buffer.add_char b 'E';
      add_string_field b message;
      add_payload out b

(* --- decoding ----------------------------------------------------------- *)

(* A cursor over one complete payload; every read is bounds-checked so
   hostile lengths fail as Parse_error, not as an exception from
   Bytes. *)
type cursor = { data : bytes; mutable pos : int; limit : int }

let cursor_fail fmt = Parse_error.fail fmt

let need c n =
  if c.limit - c.pos < n then
    cursor_fail "Frame: truncated binary payload (need %d bytes at %d)" n c.pos

let read_char c =
  need c 1;
  let ch = Bytes.get c.data c.pos in
  c.pos <- c.pos + 1;
  ch

let read_i64 c =
  need c 8;
  let v = Bytes.get_int64_le c.data c.pos in
  c.pos <- c.pos + 8;
  Int64.to_int v

let read_nonneg c name =
  let v = read_i64 c in
  if v < 0 then cursor_fail "Frame: negative %s: %d" name v;
  v

let read_count c name ~min_item_bytes =
  let v = read_nonneg c name in
  if min_item_bytes > 0 && v > (c.limit - c.pos) / min_item_bytes then
    cursor_fail "Frame: %s %d larger than the remaining payload" name v;
  v

let read_string c name =
  let n = read_count c name ~min_item_bytes:1 in
  let s = Bytes.sub_string c.data c.pos n in
  c.pos <- c.pos + n;
  s

let read_symbols c n =
  need c n;
  let a = Array.make n 0 in
  for i = 0 to n - 1 do
    let v = Char.code (Bytes.unsafe_get c.data (c.pos + i)) in
    if v > 254 then cursor_fail "Frame: symbol byte %d out of range" v;
    Array.unsafe_set a i v
  done;
  c.pos <- c.pos + n;
  a

let read_event c =
  match read_char c with
  | 'd' ->
      let session = read_nonneg c "session id" in
      let n = read_count c "symbol count" ~min_item_bytes:1 in
      Data { session; symbols = read_symbols c n }
  | 'e' -> End_of_session { session = read_nonneg c "session id" }
  | ch -> cursor_fail "Frame: unknown event tag %C" ch

let finish c v =
  if c.pos <> c.limit then
    cursor_fail "Frame: %d trailing payload bytes" (c.limit - c.pos);
  v

let decode_request c =
  match read_char c with
  | 'B' ->
      let id = read_nonneg c "batch id" in
      let n = read_count c "event count" ~min_item_bytes:9 in
      if n = 0 then cursor_fail "Frame: a batch must carry at least one event";
      finish c (Batch { id; events = List.init n (fun _ -> read_event c) })
  | 'S' -> finish c Stats_request
  | 'H' -> finish c Health_request
  | 'D' -> finish c Drain_request
  | 'Q' -> finish c Quit
  | ch -> cursor_fail "Frame: unknown request tag %C" ch

let read_incident_event c =
  match read_char c with
  | 'o' ->
      let session = read_nonneg c "session id" in
      Opened { session; position = read_nonneg c "position" }
  | 'c' ->
      let session = read_nonneg c "session id" in
      let first_start = read_i64 c in
      let last_start = read_i64 c in
      let cover_from = read_i64 c in
      let cover_to = read_i64 c in
      let alarms = read_nonneg c "alarm count" in
      need c 8;
      let bits = Bytes.get_int64_le c.data c.pos in
      c.pos <- c.pos + 8;
      Closed
        {
          session;
          incident =
            {
              first_start;
              last_start;
              cover_from;
              cover_to;
              alarms;
              peak_score = Int64.float_of_bits bits;
            };
        }
  | ch -> cursor_fail "Frame: unknown incident tag %C" ch

let read_bool c name =
  match read_i64 c with
  | 0 -> false
  | 1 -> true
  | v -> cursor_fail "Frame: %s flag %d is not 0 or 1" name v

let read_float_bits c =
  need c 8;
  let bits = Bytes.get_int64_le c.data c.pos in
  c.pos <- c.pos + 8;
  Int64.float_of_bits bits

let read_shard_stats c =
  let shard = read_i64 c in
  let sessions_resident = read_nonneg c "sessions_resident" in
  let events = read_nonneg c "events" in
  let symbols = read_nonneg c "symbols" in
  let batches = read_nonneg c "batches" in
  let rejected = read_nonneg c "rejected" in
  let queue_depth = read_nonneg c "queue_depth" in
  let bytes_resident = read_nonneg c "bytes_resident" in
  let busy_ns = read_nonneg c "busy_ns" in
  let p50_batch_ns = read_nonneg c "p50_batch_ns" in
  let p99_batch_ns = read_nonneg c "p99_batch_ns" in
  let restarts = read_nonneg c "restarts" in
  let alive = read_bool c "alive" in
  let degraded = read_bool c "degraded" in
  let retry_after_ms = read_nonneg c "retry_after_ms" in
  let windows = read_nonneg c "windows" in
  let alarms = read_nonneg c "alarms" in
  let threshold = read_float_bits c in
  {
    shard;
    sessions_resident;
    events;
    symbols;
    batches;
    rejected;
    queue_depth;
    bytes_resident;
    busy_ns;
    p50_batch_ns;
    p99_batch_ns;
    restarts;
    alive;
    degraded;
    retry_after_ms;
    windows;
    alarms;
    threshold;
  }

(* Eighteen 8-byte words: the least payload one shard row can take. *)
let shard_stats_bytes = 144

let decode_response c =
  match read_char c with
  | 'A' ->
      let id = read_nonneg c "batch id" in
      let shard = read_i64 c in
      let events = read_nonneg c "event count" in
      let n = read_count c "incident count" ~min_item_bytes:17 in
      finish c
        (Ack
           { id; shard; events;
             incidents = List.init n (fun _ -> read_incident_event c) })
  | 'R' ->
      let id = read_nonneg c "batch id" in
      finish c (Rejected { id; retry_after_ms = read_nonneg c "retry-after" })
  | 'F' ->
      let id = read_nonneg c "batch id" in
      let shard = read_i64 c in
      let events = read_nonneg c "event count" in
      finish c
        (Failed { id; shard; events; reason = read_string c "reason length" })
  | 'T' ->
      let n = read_count c "shard count" ~min_item_bytes:shard_stats_bytes in
      finish c (Stats (List.init n (fun _ -> read_shard_stats c)))
  | 'h' ->
      let connections = read_nonneg c "connections" in
      let evictions = read_nonneg c "evictions" in
      let draining = read_bool c "draining" in
      let n = read_count c "shard count" ~min_item_bytes:shard_stats_bytes in
      finish c
        (Health
           {
             shards = List.init n (fun _ -> read_shard_stats c);
             connections;
             evictions;
             draining;
           })
  | 'd' -> finish c (Drained { batches = read_nonneg c "batch count" })
  | 'E' -> finish c (Error_msg (read_string c "message length"))
  | ch -> cursor_fail "Frame: unknown response tag %C" ch

(* --- public encoders ---------------------------------------------------- *)

let write_request out Binary request = add_request out request

let write_response out Binary response = add_response out response

(* --- incremental reader ------------------------------------------------- *)

type reader = {
  mutable buf : bytes;
  mutable start : int;  (* first unconsumed byte *)
  mutable fill : int;  (* end of valid data *)
}

let reader () = { buf = Bytes.create 4096; start = 0; fill = 0 }

let available r = r.fill - r.start

let feed_bytes r src ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length src then
    (* lint: allow partiality — documented precondition *)
    invalid_arg "Frame.feed_bytes: bad slice";
  let cap = Bytes.length r.buf in
  if r.fill + len > cap then begin
    let live = available r in
    if live + len <= cap && r.start > 0 then begin
      (* compaction is enough *)
      Bytes.blit r.buf r.start r.buf 0 live;
      r.start <- 0;
      r.fill <- live
    end
    else begin
      let cap' = max (live + len) (cap * 2) in
      let buf' = Bytes.create cap' in
      Bytes.blit r.buf r.start buf' 0 live;
      r.buf <- buf';
      r.start <- 0;
      r.fill <- live
    end
  end;
  Bytes.blit src pos r.buf r.fill len;
  r.fill <- r.fill + len

(* One complete payload, or None for more bytes.  A frame's first byte
   is checked as soon as it arrives, so a peer speaking anything else
   is refused before any length or payload is buffered. *)
let next_payload r =
  if available r = 0 then None
  else begin
    if Bytes.get r.buf r.start <> binary_magic then
      Parse_error.fail "Frame: bad frame magic 0x%02x"
        (Char.code (Bytes.get r.buf r.start));
    if available r < 5 then None
    else begin
      let len =
        Int32.to_int (Bytes.get_int32_le r.buf (r.start + 1)) land 0xffffffff
      in
      if len > max_payload then
        Parse_error.fail "Frame: frame length %d exceeds %d" len max_payload;
      if available r < 5 + len then None
      else begin
        let pos = r.start + 5 in
        r.start <- pos + len;
        Some { data = r.buf; pos; limit = pos + len }
      end
    end
  end

let next_request r = Option.map decode_request (next_payload r)
let next_response r = Option.map decode_response (next_payload r)

(* --- incident-log rendering --------------------------------------------- *)

let render_incident_event = function
  | Opened { session; position } ->
      Printf.sprintf "session %d opened %d" session position
  | Closed { session; incident = i } ->
      Printf.sprintf
        "session %d closed first=%d last=%d cover=%d..%d alarms=%d peak=%016Lx"
        session i.first_start i.last_start i.cover_from i.cover_to i.alarms
        (Int64.bits_of_float i.peak_score)

(* --- health rendering ---------------------------------------------------- *)

let render_health h =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "serve: connections=%d evictions=%d draining=%b\n"
       h.connections h.evictions h.draining);
  List.iter
    (fun s ->
      Buffer.add_string b
        (Printf.sprintf
           "shard %d: %s restarts=%d queue_depth=%d retry_after_ms=%d \
            windows=%d alarms=%d threshold=%h\n"
           s.shard
           (if s.degraded then "DEGRADED"
            else if s.alive then "alive"
            else "dead")
           s.restarts s.queue_depth s.retry_after_ms s.windows s.alarms
           s.threshold))
    h.shards;
  Buffer.contents b
