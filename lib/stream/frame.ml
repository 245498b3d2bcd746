(* Wire framing for the serve layer: a pure two-format codec (binary
   length-prefixed frames and ndjson lines) with an incremental
   per-connection reader that sniffs the format from the first byte.
   See frame.mli for the wire layout. *)

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
  degraded : bool;
  retry_after_ms : int;
  windows : int;
  alarms : int;
  threshold : float;
}

type shard_health = {
  h_shard : int;
  h_alive : bool;
  h_degraded : bool;
  h_restarts : int;
  h_queue_depth : int;
  h_retry_after_ms : int;
  h_windows : int;
  h_alarms : int;
  h_threshold : float;
}

type health = {
  shards_health : shard_health list;
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

let check_batch id events =
  check_nonneg "batch id" id;
  if events = [] then
    (* lint: allow partiality — documented precondition *)
    invalid_arg "Frame: a batch must carry at least one event";
  List.iter
    (function
      | Data { session; symbols } ->
          check_nonneg "session id" session;
          Array.iter check_symbol symbols
      | End_of_session { session } -> check_nonneg "session id" session)
    events

(* --- binary encoding ---------------------------------------------------- *)

type encoding = Binary | Ndjson

let binary_magic = '\xab'
let max_payload = 1 lsl 26 (* 64 MiB: no hostile length can force the
                              reader into an absurd allocation *)

let add_i64 b v = Buffer.add_int64_le b (Int64.of_int v)

let add_payload out payload =
  let n = Buffer.length payload in
  if n > max_payload then
    (* lint: allow partiality — documented precondition *)
    invalid_arg (Printf.sprintf "Frame: payload %d exceeds %d bytes" n
                   max_payload);
  Buffer.add_char out binary_magic;
  Buffer.add_int32_le out (Int32.of_int n);
  Buffer.add_buffer out payload

let add_string_field b s =
  add_i64 b (String.length s);
  Buffer.add_string b s

let binary_of_request out = function
  | Batch { id; events } ->
      let b = Buffer.create 256 in
      Buffer.add_char b 'B';
      add_i64 b id;
      add_i64 b (List.length events);
      List.iter
        (function
          | Data { session; symbols } ->
              Buffer.add_char b 'd';
              add_i64 b session;
              add_i64 b (Array.length symbols);
              Array.iter (fun s -> Buffer.add_char b (Char.chr s)) symbols
          | End_of_session { session } ->
              Buffer.add_char b 'e';
              add_i64 b session)
        events;
      add_payload out b
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
  add_i64 b (if s.degraded then 1 else 0);
  add_i64 b s.retry_after_ms;
  add_i64 b s.windows;
  add_i64 b s.alarms;
  Buffer.add_int64_le b (Int64.bits_of_float s.threshold)

let add_shard_health b h =
  add_i64 b h.h_shard;
  add_i64 b (if h.h_alive then 1 else 0);
  add_i64 b (if h.h_degraded then 1 else 0);
  add_i64 b h.h_restarts;
  add_i64 b h.h_queue_depth;
  add_i64 b h.h_retry_after_ms;
  add_i64 b h.h_windows;
  add_i64 b h.h_alarms;
  Buffer.add_int64_le b (Int64.bits_of_float h.h_threshold)

let binary_of_response out = function
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
  | Health { shards_health; connections; evictions; draining } ->
      let b = Buffer.create 256 in
      Buffer.add_char b 'h';
      add_i64 b connections;
      add_i64 b evictions;
      add_i64 b (if draining then 1 else 0);
      add_i64 b (List.length shards_health);
      List.iter (add_shard_health b) shards_health;
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

(* --- binary decoding ---------------------------------------------------- *)

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
  let a =
    Array.init n (fun i ->
        let v = Char.code (Bytes.get c.data (c.pos + i)) in
        if v > 254 then cursor_fail "Frame: symbol byte %d out of range" v;
        v)
  in
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

let decode_binary_request c =
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
    degraded;
    retry_after_ms;
    windows;
    alarms;
    threshold;
  }

let read_shard_health c =
  let h_shard = read_i64 c in
  let h_alive = read_bool c "alive" in
  let h_degraded = read_bool c "degraded" in
  let h_restarts = read_nonneg c "restarts" in
  let h_queue_depth = read_nonneg c "queue_depth" in
  let h_retry_after_ms = read_nonneg c "retry_after_ms" in
  let h_windows = read_nonneg c "windows" in
  let h_alarms = read_nonneg c "alarms" in
  let h_threshold = read_float_bits c in
  {
    h_shard;
    h_alive;
    h_degraded;
    h_restarts;
    h_queue_depth;
    h_retry_after_ms;
    h_windows;
    h_alarms;
    h_threshold;
  }

let decode_binary_response c =
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
      let n = read_count c "shard count" ~min_item_bytes:136 in
      finish c (Stats (List.init n (fun _ -> read_shard_stats c)))
  | 'h' ->
      let connections = read_nonneg c "connections" in
      let evictions = read_nonneg c "evictions" in
      let draining = read_bool c "draining" in
      let n = read_count c "shard count" ~min_item_bytes:72 in
      finish c
        (Health
           {
             shards_health = List.init n (fun _ -> read_shard_health c);
             connections;
             evictions;
             draining;
           })
  | 'd' -> finish c (Drained { batches = read_nonneg c "batch count" })
  | 'E' -> finish c (Error_msg (read_string c "message length"))
  | ch -> cursor_fail "Frame: unknown response tag %C" ch

(* --- json values -------------------------------------------------------- *)

type json =
  | J_null
  | J_bool of bool
  | J_int of int
  | J_float of float
  | J_string of string
  | J_list of json list
  | J_obj of (string * json) list

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let rec print_json b = function
  | J_null -> Buffer.add_string b "null"
  | J_bool v -> Buffer.add_string b (if v then "true" else "false")
  | J_int v -> Buffer.add_string b (string_of_int v)
  | J_float v -> Buffer.add_string b (Printf.sprintf "%.17g" v)
  | J_string s ->
      Buffer.add_char b '"';
      Buffer.add_string b (json_escape s);
      Buffer.add_char b '"'
  | J_list items ->
      Buffer.add_char b '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char b ',';
          print_json b item)
        items;
      Buffer.add_char b ']'
  | J_obj fields ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_char b '"';
          Buffer.add_string b (json_escape k);
          Buffer.add_string b "\":";
          print_json b v)
        fields;
      Buffer.add_char b '}'

(* A recursive-descent parser over one line.  Minimal but total: every
   malformed shape lands in Parse_error with a position. *)
let parse_json line =
  let n = String.length line in
  let pos = ref 0 in
  let fail fmt = Parse_error.fail ("Frame: ndjson: " ^^ fmt) in
  let peek () = if !pos < n then Some line.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && (match line.[!pos] with ' ' | '\t' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect ch =
    match peek () with
    | Some c when c = ch -> advance ()
    | Some c -> fail "expected %C at %d, found %C" ch !pos c
    | None -> fail "expected %C at %d, found end of line" ch !pos
  in
  let literal word value =
    let k = String.length word in
    if !pos + k <= n && String.sub line !pos k = word then begin
      pos := !pos + k;
      value
    end
    else fail "bad literal at %d" !pos
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | Some '"' -> advance (); Buffer.add_char b '"'; go ()
          | Some '\\' -> advance (); Buffer.add_char b '\\'; go ()
          | Some '/' -> advance (); Buffer.add_char b '/'; go ()
          | Some 'b' -> advance (); Buffer.add_char b '\b'; go ()
          | Some 'f' -> advance (); Buffer.add_char b '\012'; go ()
          | Some 'n' -> advance (); Buffer.add_char b '\n'; go ()
          | Some 'r' -> advance (); Buffer.add_char b '\r'; go ()
          | Some 't' -> advance (); Buffer.add_char b '\t'; go ()
          | Some 'u' ->
              advance ();
              if !pos + 4 > n then fail "truncated \\u escape";
              let hex = String.sub line !pos 4 in
              pos := !pos + 4;
              (match int_of_string_opt ("0x" ^ hex) with
              | Some code when code < 256 -> Buffer.add_char b (Char.chr code)
              | Some code -> fail "unsupported \\u%04x escape" code
              | None -> fail "bad \\u escape %S" hex);
              go ()
          | Some c -> fail "bad escape \\%C" c
          | None -> fail "unterminated string")
      | Some c ->
          advance ();
          Buffer.add_char b c;
          go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    while
      !pos < n
      &&
      match line.[!pos] with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    do
      advance ()
    done;
    let s = String.sub line start (!pos - start) in
    match int_of_string_opt s with
    | Some v -> J_int v
    | None -> (
        match float_of_string_opt s with
        | Some v -> J_float v
        | None -> fail "bad number %S at %d" s start)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          J_obj []
        end
        else begin
          let rec fields acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                fields ((k, v) :: acc)
            | Some '}' ->
                advance ();
                List.rev ((k, v) :: acc)
            | _ -> fail "expected ',' or '}' at %d" !pos
          in
          J_obj (fields [])
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          J_list []
        end
        else begin
          let rec items acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                items (v :: acc)
            | Some ']' ->
                advance ();
                List.rev (v :: acc)
            | _ -> fail "expected ',' or ']' at %d" !pos
          in
          J_list (items [])
        end
    | Some '"' -> J_string (parse_string ())
    | Some 't' -> literal "true" (J_bool true)
    | Some 'f' -> literal "false" (J_bool false)
    | Some 'n' -> literal "null" J_null
    | Some ('0' .. '9' | '-') -> parse_number ()
    | Some c -> fail "unexpected %C at %d" c !pos
    | None -> fail "empty value"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing bytes at %d" !pos;
  v

(* Field accessors over a decoded object. *)

let obj_fields name = function
  | J_obj fields -> fields
  | _ -> Parse_error.fail "Frame: ndjson: %s is not an object" name

let field fields k =
  match List.assoc_opt k fields with
  | Some v -> v
  | None -> Parse_error.fail "Frame: ndjson: missing field %S" k

let int_field fields k =
  match field fields k with
  | J_int v -> v
  | _ -> Parse_error.fail "Frame: ndjson: field %S is not an integer" k

let str_field fields k =
  match field fields k with
  | J_string v -> v
  | _ -> Parse_error.fail "Frame: ndjson: field %S is not a string" k

let list_field fields k =
  match field fields k with
  | J_list v -> v
  | _ -> Parse_error.fail "Frame: ndjson: field %S is not a list" k

let bool_field fields k =
  match field fields k with
  | J_bool v -> v
  | _ -> Parse_error.fail "Frame: ndjson: field %S is not a boolean" k

let nonneg_field fields k =
  let v = int_field fields k in
  if v < 0 then Parse_error.fail "Frame: ndjson: negative field %S: %d" k v;
  v

let bits_field fields k =
  let s = str_field fields k in
  if String.length s <> 16 then
    Parse_error.fail "Frame: ndjson: field %S is not 16 hex digits" k;
  match Int64.of_string_opt ("0x" ^ s) with
  | Some bits -> Int64.float_of_bits bits
  | None -> Parse_error.fail "Frame: ndjson: field %S is not hex" k

(* --- ndjson encoding ---------------------------------------------------- *)

let json_of_event = function
  | Data { session; symbols } ->
      J_obj
        [
          ("type", J_string "data");
          ("session", J_int session);
          ("symbols", J_list (Array.to_list (Array.map (fun s -> J_int s) symbols)));
        ]
  | End_of_session { session } ->
      J_obj [ ("type", J_string "end"); ("session", J_int session) ]

let json_of_request = function
  | Batch { id; events } ->
      J_obj
        [
          ("type", J_string "batch");
          ("id", J_int id);
          ("events", J_list (List.map json_of_event events));
        ]
  | Stats_request -> J_obj [ ("type", J_string "stats") ]
  | Health_request -> J_obj [ ("type", J_string "health") ]
  | Drain_request -> J_obj [ ("type", J_string "drain") ]
  | Quit -> J_obj [ ("type", J_string "quit") ]

let json_of_incident_event = function
  | Opened { session; position } ->
      J_obj
        [
          ("type", J_string "opened");
          ("session", J_int session);
          ("position", J_int position);
        ]
  | Closed { session; incident = i } ->
      J_obj
        [
          ("type", J_string "closed");
          ("session", J_int session);
          ("first_start", J_int i.first_start);
          ("last_start", J_int i.last_start);
          ("cover_from", J_int i.cover_from);
          ("cover_to", J_int i.cover_to);
          ("alarms", J_int i.alarms);
          (* bits are authoritative (lossless); the float field rides
             along for human readers *)
          ( "peak_score_bits",
            J_string (Printf.sprintf "%016Lx" (Int64.bits_of_float i.peak_score))
          );
          ("peak_score", J_float i.peak_score);
        ]

let json_of_shard_stats s =
  J_obj
    [
      ("shard", J_int s.shard);
      ("sessions_resident", J_int s.sessions_resident);
      ("events", J_int s.events);
      ("symbols", J_int s.symbols);
      ("batches", J_int s.batches);
      ("rejected", J_int s.rejected);
      ("queue_depth", J_int s.queue_depth);
      ("bytes_resident", J_int s.bytes_resident);
      ("busy_ns", J_int s.busy_ns);
      ("p50_batch_ns", J_int s.p50_batch_ns);
      ("p99_batch_ns", J_int s.p99_batch_ns);
      ("restarts", J_int s.restarts);
      ("degraded", J_bool s.degraded);
      ("retry_after_ms", J_int s.retry_after_ms);
      ("windows", J_int s.windows);
      ("alarms", J_int s.alarms);
      (* bits are authoritative (lossless); the float field rides
         along for human readers *)
      ( "threshold_bits",
        J_string (Printf.sprintf "%016Lx" (Int64.bits_of_float s.threshold)) );
      ("threshold", J_float s.threshold);
    ]

let json_of_shard_health h =
  J_obj
    [
      ("shard", J_int h.h_shard);
      ("alive", J_bool h.h_alive);
      ("degraded", J_bool h.h_degraded);
      ("restarts", J_int h.h_restarts);
      ("queue_depth", J_int h.h_queue_depth);
      ("retry_after_ms", J_int h.h_retry_after_ms);
      ("windows", J_int h.h_windows);
      ("alarms", J_int h.h_alarms);
      ( "threshold_bits",
        J_string (Printf.sprintf "%016Lx" (Int64.bits_of_float h.h_threshold)) );
      ("threshold", J_float h.h_threshold);
    ]

let json_of_response = function
  | Ack { id; shard; events; incidents } ->
      J_obj
        [
          ("type", J_string "ack");
          ("id", J_int id);
          ("shard", J_int shard);
          ("events", J_int events);
          ("incidents", J_list (List.map json_of_incident_event incidents));
        ]
  | Rejected { id; retry_after_ms } ->
      J_obj
        [
          ("type", J_string "rejected");
          ("id", J_int id);
          ("retry_after_ms", J_int retry_after_ms);
        ]
  | Failed { id; shard; events; reason } ->
      J_obj
        [
          ("type", J_string "failed");
          ("id", J_int id);
          ("shard", J_int shard);
          ("events", J_int events);
          ("reason", J_string reason);
        ]
  | Stats shards ->
      J_obj
        [
          ("type", J_string "stats");
          ("shards", J_list (List.map json_of_shard_stats shards));
        ]
  | Health { shards_health; connections; evictions; draining } ->
      J_obj
        [
          ("type", J_string "health");
          ("connections", J_int connections);
          ("evictions", J_int evictions);
          ("draining", J_bool draining);
          ("shards", J_list (List.map json_of_shard_health shards_health));
        ]
  | Drained { batches } ->
      J_obj [ ("type", J_string "drained"); ("batches", J_int batches) ]
  | Error_msg message ->
      J_obj [ ("type", J_string "error"); ("message", J_string message) ]

let add_json_line out v =
  print_json out v;
  Buffer.add_char out '\n'

(* --- ndjson decoding ---------------------------------------------------- *)

let event_of_json v =
  let fields = obj_fields "event" v in
  match str_field fields "type" with
  | "data" ->
      let symbols =
        list_field fields "symbols"
        |> List.map (function
             | J_int s when s >= 0 && s <= 254 -> s
             | J_int s ->
                 Parse_error.fail "Frame: ndjson: symbol %d out of range" s
             | _ -> Parse_error.fail "Frame: ndjson: symbol is not an integer")
        |> Array.of_list
      in
      Data { session = nonneg_field fields "session"; symbols }
  | "end" -> End_of_session { session = nonneg_field fields "session" }
  | t -> Parse_error.fail "Frame: ndjson: unknown event type %S" t

let request_of_json v =
  let fields = obj_fields "request" v in
  match str_field fields "type" with
  | "batch" ->
      let events = List.map event_of_json (list_field fields "events") in
      if events = [] then
        Parse_error.fail "Frame: a batch must carry at least one event";
      Batch { id = nonneg_field fields "id"; events }
  | "stats" -> Stats_request
  | "health" -> Health_request
  | "drain" -> Drain_request
  | "quit" -> Quit
  | t -> Parse_error.fail "Frame: ndjson: unknown request type %S" t

let incident_event_of_json v =
  let fields = obj_fields "incident event" v in
  match str_field fields "type" with
  | "opened" ->
      Opened
        {
          session = nonneg_field fields "session";
          position = nonneg_field fields "position";
        }
  | "closed" ->
      Closed
        {
          session = nonneg_field fields "session";
          incident =
            {
              first_start = int_field fields "first_start";
              last_start = int_field fields "last_start";
              cover_from = int_field fields "cover_from";
              cover_to = int_field fields "cover_to";
              alarms = nonneg_field fields "alarms";
              peak_score = bits_field fields "peak_score_bits";
            };
        }
  | t -> Parse_error.fail "Frame: ndjson: unknown incident type %S" t

let shard_stats_of_json v =
  let fields = obj_fields "shard stats" v in
  {
    shard = int_field fields "shard";
    sessions_resident = nonneg_field fields "sessions_resident";
    events = nonneg_field fields "events";
    symbols = nonneg_field fields "symbols";
    batches = nonneg_field fields "batches";
    rejected = nonneg_field fields "rejected";
    queue_depth = nonneg_field fields "queue_depth";
    bytes_resident = nonneg_field fields "bytes_resident";
    busy_ns = nonneg_field fields "busy_ns";
    p50_batch_ns = nonneg_field fields "p50_batch_ns";
    p99_batch_ns = nonneg_field fields "p99_batch_ns";
    restarts = nonneg_field fields "restarts";
    degraded = bool_field fields "degraded";
    retry_after_ms = nonneg_field fields "retry_after_ms";
    windows = nonneg_field fields "windows";
    alarms = nonneg_field fields "alarms";
    threshold = bits_field fields "threshold_bits";
  }

let shard_health_of_json v =
  let fields = obj_fields "shard health" v in
  {
    h_shard = int_field fields "shard";
    h_alive = bool_field fields "alive";
    h_degraded = bool_field fields "degraded";
    h_restarts = nonneg_field fields "restarts";
    h_queue_depth = nonneg_field fields "queue_depth";
    h_retry_after_ms = nonneg_field fields "retry_after_ms";
    h_windows = nonneg_field fields "windows";
    h_alarms = nonneg_field fields "alarms";
    h_threshold = bits_field fields "threshold_bits";
  }

let response_of_json v =
  let fields = obj_fields "response" v in
  match str_field fields "type" with
  | "ack" ->
      Ack
        {
          id = nonneg_field fields "id";
          shard = int_field fields "shard";
          events = nonneg_field fields "events";
          incidents =
            List.map incident_event_of_json (list_field fields "incidents");
        }
  | "rejected" ->
      Rejected
        {
          id = nonneg_field fields "id";
          retry_after_ms = nonneg_field fields "retry_after_ms";
        }
  | "failed" ->
      Failed
        {
          id = nonneg_field fields "id";
          shard = int_field fields "shard";
          events = nonneg_field fields "events";
          reason = str_field fields "reason";
        }
  | "stats" -> Stats (List.map shard_stats_of_json (list_field fields "shards"))
  | "health" ->
      Health
        {
          shards_health =
            List.map shard_health_of_json (list_field fields "shards");
          connections = nonneg_field fields "connections";
          evictions = nonneg_field fields "evictions";
          draining = bool_field fields "draining";
        }
  | "drained" -> Drained { batches = nonneg_field fields "batches" }
  | "error" -> Error_msg (str_field fields "message")
  | t -> Parse_error.fail "Frame: ndjson: unknown response type %S" t

(* --- public encoders ---------------------------------------------------- *)

let write_request out encoding request =
  (match request with
  | Batch { id; events } -> check_batch id events
  | Stats_request | Health_request | Drain_request | Quit -> ());
  match encoding with
  | Binary -> binary_of_request out request
  | Ndjson -> add_json_line out (json_of_request request)

let write_response out encoding response =
  match encoding with
  | Binary -> binary_of_response out response
  | Ndjson -> add_json_line out (json_of_response response)

(* --- incremental reader ------------------------------------------------- *)

type reader = {
  mutable buf : bytes;
  mutable start : int;  (* first unconsumed byte *)
  mutable fill : int;  (* end of valid data *)
  (* Where the ndjson newline search resumes: [start, scan) holds no
     newline, so a line fed in small chunks is scanned once, not once
     per chunk. *)
  mutable scan : int;
  mutable enc : encoding option;
}

let reader () =
  { buf = Bytes.create 4096; start = 0; fill = 0; scan = 0; enc = None }

let available r = r.fill - r.start

let feed_bytes r src ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length src then
    (* lint: allow partiality — documented precondition *)
    invalid_arg "Frame.feed_bytes: bad slice";
  let cap = Bytes.length r.buf in
  if r.fill + len > cap then begin
    let live = available r in
    (* Both branches move the live bytes to offset 0. *)
    r.scan <- Stdlib.max 0 (r.scan - r.start);
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

let sniff r =
  match r.enc with
  | Some e -> Some e
  | None ->
      if available r = 0 then None
      else begin
        let e =
          if Bytes.get r.buf r.start = binary_magic then Binary else Ndjson
        in
        r.enc <- Some e;
        Some e
      end

let reader_encoding r = sniff r

(* One complete binary payload, or None for more bytes. *)
let next_binary_payload r =
  if available r < 5 then None
  else begin
    if Bytes.get r.buf r.start <> binary_magic then
      Parse_error.fail "Frame: bad frame magic 0x%02x"
        (Char.code (Bytes.get r.buf r.start));
    let len =
      Int32.to_int (Bytes.get_int32_le r.buf (r.start + 1)) land 0xffffffff
    in
    if len > max_payload then
      Parse_error.fail "Frame: frame length %d exceeds %d" len max_payload;
    if available r < 5 + len then None
    else begin
      let c = { data = r.buf; pos = r.start + 5; limit = r.start + 5 + len } in
      r.start <- r.start + 5 + len;
      Some c
    end
  end

(* The first newline in [i, fill), or [fill] when there is none. *)
let rec newline_from buf i fill =
  if i >= fill || Bytes.get buf i = '\n' then i
  else newline_from buf (i + 1) fill

(* One complete ndjson line (sans newline), skipping blank lines. *)
let rec next_line r =
  let i = newline_from r.buf (Stdlib.max r.scan r.start) r.fill in
  r.scan <- i;
  if i < r.fill then begin
    let line = Bytes.sub_string r.buf r.start (i - r.start) in
    r.start <- i + 1;
    let line =
      if String.length line > 0 && line.[String.length line - 1] = '\r' then
        String.sub line 0 (String.length line - 1)
      else line
    in
    if String.for_all (fun c -> c = ' ' || c = '\t') line then next_line r
    else Some line
  end
  else begin
    if available r > max_payload then
      Parse_error.fail "Frame: ndjson line exceeds %d bytes" max_payload;
    None
  end

let next_frame r ~binary ~ndjson =
  match sniff r with
  | None -> None
  | Some Binary -> Option.map binary (next_binary_payload r)
  | Some Ndjson -> Option.map (fun l -> ndjson (parse_json l)) (next_line r)

let next_request r =
  next_frame r ~binary:decode_binary_request ~ndjson:request_of_json

let next_response r =
  next_frame r ~binary:decode_binary_response ~ndjson:response_of_json

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
           s.h_shard
           (if s.h_degraded then "DEGRADED"
            else if s.h_alive then "alive"
            else "dead")
           s.h_restarts s.h_queue_depth s.h_retry_after_ms s.h_windows
           s.h_alarms s.h_threshold))
    h.shards_health;
  Buffer.contents b
