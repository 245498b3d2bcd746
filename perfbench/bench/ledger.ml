(* The traced run's layer ledger.

   The in-process rows replay a workload's own batches through the
   public calls a symbol passes on its way through `seqdiv serve`:

     L0 Flat_automaton.step + state_score    (alone, per session)
     L1 Online.feed                          (alone, per session)
     L2 Session_table.apply, then the four stats calls Serve publishes
     L3 Session_table.apply with a Shard_journal attached
     L4 Frame encode and decode of the batch, and of its ack

   L5, the socket end to end, comes from the traced socket phases (the
   server's Stats counters, /proc, and its runtime-events ring).  Every
   call gets a span; spans share their batch's id and are written out
   when the run ends. *)

open Seqdiv_stream
open Seqdiv_core

(* --- spans --------------------------------------------------------------- *)

type span = {
  id : int;
  parent : int;  (* -1 for a root *)
  batch : int;
  name : string;
  t0 : float;
  t1 : float;
}

let spans : span list ref = ref []
let next_span = ref 0

let reserve () =
  let id = !next_span in
  incr next_span;
  id

let span ?(id = reserve ()) ?(parent = -1) ~batch name t0 t1 =
  spans := { id; parent; batch; name; t0; t1 } :: !spans;
  id

let write_spans path =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc "id\tparent\tbatch\tname\tstart_s\tend_s\n";
      List.iter
        (fun s ->
          Printf.fprintf oc "%d\t%d\t%d\t%s\t%.9f\t%.9f\n" s.id s.parent s.batch
            s.name s.t0 s.t1)
        (List.rev !spans))

(* A layer's accumulated work: time in its calls, symbols, minor-heap
   words allocated by its calls, and one latency sample per call. *)
type layer = {
  mutable busy_s : float;
  mutable symbols : int;
  mutable words : float;
  per_call_us : Measure.samples;
}

let layer () = { busy_s = 0.0; symbols = 0; words = 0.0; per_call_us = Measure.samples () }

(* Time and count one call of a layer, and record its span. *)
let measure ?parent l ~batch ~name ~symbols f =
  let w0 = Gc.minor_words () in
  let t0 = Measure.now () in
  let v = f () in
  let t1 = Measure.now () in
  let w1 = Gc.minor_words () in
  l.busy_s <- l.busy_s +. (t1 -. t0);
  l.symbols <- l.symbols + symbols;
  l.words <- l.words +. (w1 -. w0);
  Measure.add l.per_call_us ((t1 -. t0) *. 1e6);
  ignore (span ?parent ~batch name t0 t1);
  v

let sym_per_s l = float_of_int l.symbols /. l.busy_s
let words_per_sym l = l.words /. float_of_int l.symbols
let n l = Measure.count l.per_call_us

let rate_rows prefix l =
  [
    Measure.metric ~n:(n l) (prefix ^ ".sym_per_s") "sym/s" (sym_per_s l);
    Measure.metric ~n:(n l) (prefix ^ ".words_per_sym") "words/sym" (words_per_sym l);
  ]

let latency_rows prefix l =
  [
    Measure.metric ~n:(n l) (prefix ^ ".apply_p50_us") "us" (Measure.percentile l.per_call_us 50.0);
    Measure.metric ~n:(n l) (prefix ^ ".apply_p99_us") "us" (Measure.percentile l.per_call_us 99.0);
  ]

let stats_calls table =
  ignore (Session_table.bytes_resident table);
  ignore (Session_table.windows_scored table);
  ignore (Session_table.alarm_windows table);
  ignore (Session_table.current_threshold table)

(* --- L0-L2 and L4 on stream's batches ------------------------------------ *)

(* Rounds replayed in process: 64 rounds = 1,024 batches, 16.4 M symbols. *)
let stream_rounds = 64

let stream (st : Traffic.stream) =
  let m = st.Traffic.s_model in
  let scorer = m.Traffic.scorer in
  let auto = Flat_automaton.automaton scorer in
  let l0 = layer () and l1 = layer () and l2 = layer () and stats = layer () in
  let enc = layer () and dec = layer () and ack = layer () in
  let states : (int, int) Hashtbl.t = Hashtbl.create 128 in
  let monitors : (int, Online.t) Hashtbl.t = Hashtbl.create 128 in
  let table = Session_table.create ~scorer ~threshold:m.Traffic.threshold ~shard:0 () in
  let reader = Frame.reader () and buf = Buffer.create 65536 in
  let wire_bytes = ref 0 and resident = ref 0 and alarms = ref 0 in
  let threshold = m.Traffic.threshold in
  let batch = ref 0 in
  for round = 0 to stream_rounds - 1 do
    for j = 0 to Traffic.stream_batches_per_round - 1 do
      let id = !batch in
      incr batch;
      let events = Traffic.stream_batch st ~round j in
      let symbols = Traffic.symbols_in events in
      let t0 = Measure.now () in
      let root = reserve () in
      (* L4: the request on the wire and back *)
      let bytes =
        measure enc ~parent:root ~batch:id ~name:"frame.encode" ~symbols (fun () ->
            Buffer.clear buf;
            Frame.write_request buf Frame.Binary (Frame.Batch { id; events });
            Buffer.to_bytes buf)
      in
      wire_bytes := !wire_bytes + Bytes.length bytes;
      let decoded =
        measure dec ~parent:root ~batch:id ~name:"frame.decode" ~symbols (fun () ->
            Frame.feed_bytes reader bytes ~pos:0 ~len:(Bytes.length bytes);
            match Frame.next_request reader with
            | Some (Frame.Batch { events; _ }) -> events
            | _ -> failwith "frame did not decode to its batch")
      in
      (* L2 and the publish *)
      let incidents =
        measure l2 ~parent:root ~batch:id ~name:"session_table.apply" ~symbols (fun () ->
            Session_table.apply table ~batch_id:id decoded)
      in
      measure stats ~parent:root ~batch:id ~name:"session_table.stats" ~symbols:0
        (fun () -> stats_calls table);
      resident := Stdlib.max !resident (Session_table.sessions_resident table);
      measure ack ~parent:root ~batch:id ~name:"frame.ack" ~symbols (fun () ->
          Buffer.clear buf;
          Frame.write_response buf Frame.Binary
            (Frame.Ack { id; shard = 0; events = List.length decoded; incidents }));
      (* L0 and L1 alone over the same symbols *)
      measure l0 ~parent:root ~batch:id ~name:"flat_automaton.step" ~symbols (fun () ->
          List.iter
            (function
              | Frame.Data { session; symbols } ->
                  let s =
                    ref
                      (Option.value ~default:Flat_automaton.start
                         (Hashtbl.find_opt states session))
                  in
                  for i = 0 to Array.length symbols - 1 do
                    s := Flat_automaton.step auto !s symbols.(i);
                    if Flat_automaton.state_score scorer !s >= threshold then incr alarms
                  done;
                  Hashtbl.replace states session !s
              | Frame.End_of_session { session } -> Hashtbl.remove states session)
            decoded);
      measure l1 ~parent:root ~batch:id ~name:"online.feed" ~symbols (fun () ->
          List.iter
            (function
              | Frame.Data { session; symbols } ->
                  let mon =
                    match Hashtbl.find_opt monitors session with
                    | Some mon -> mon
                    | None ->
                        let mon = Online.of_scorer scorer ~threshold:m.Traffic.threshold in
                        Hashtbl.replace monitors session mon;
                        mon
                  in
                  Array.iter (fun s -> ignore (Online.feed mon s)) symbols
              | Frame.End_of_session { session } ->
                  Option.iter
                    (fun mon -> ignore (Online.flush mon))
                    (Hashtbl.find_opt monitors session);
                  Hashtbl.remove monitors session)
            decoded);
      ignore (span ~id:root ~batch:id "batch" t0 (Measure.now ()))
    done
  done;
  ignore !alarms;
  let frame_us l = Measure.metric ~n:(n l) "" "us" (Measure.percentile l.per_call_us 50.0) in
  let total = l2.symbols in
  rate_rows "flat_automaton" l0
  @ rate_rows "online" l1
  @ rate_rows "session_table" l2
  @ latency_rows "session_table" l2
  @ [
      Measure.metric ~n:(n l2) "session_table.resident" "sessions" (float_of_int !resident);
      { (frame_us enc) with Measure.name = "frame.encode_us" };
      { (frame_us dec) with Measure.name = "frame.decode_us" };
      { (frame_us ack) with Measure.name = "frame.ack_us" };
      Measure.metric ~n:(n enc) "frame.wire_bytes_per_sym" "bytes/sym"
        (float_of_int !wire_bytes /. float_of_int total);
      Measure.metric ~n:(n enc) "frame.words_per_sym" "words/sym"
        ((enc.words +. dec.words) /. float_of_int total);
    ]

(* --- L2 stats and L3 on fleet's batches ---------------------------------- *)

(* Snapshot size of a resident fleet monitor, measured on the heap. *)
let snapshot_bytes (f : Traffic.fleet) ~sessions =
  let m = f.Traffic.f_model in
  let total = ref 0 in
  for s = 0 to sessions - 1 do
    let mon =
      Online.of_scorer ?adaptive:m.Traffic.adaptive m.Traffic.scorer
        ~threshold:m.Traffic.threshold
    in
    (match Traffic.fleet_data f s 0 with
    | Frame.Data { symbols; _ } -> Array.iter (fun x -> ignore (Online.feed mon x)) symbols
    | Frame.End_of_session _ -> ());
    match Online.snapshot mon with
    | Some snap ->
        total := !total + (Obj.reachable_words (Obj.repr snap) * (Sys.word_size / 8))
    | None -> failwith "fleet monitor has no snapshot"
  done;
  float_of_int !total /. float_of_int sessions

let fleet ~dir (f : Traffic.fleet) =
  let m = f.Traffic.f_model in
  let create ?journal () =
    Session_table.create ~scorer:m.Traffic.scorer ~threshold:m.Traffic.threshold
      ?adaptive:m.Traffic.adaptive ?journal ~shard:0 ()
  in
  let path = Filename.concat dir "ledger-shard-0.journal" in
  let journal = Shard_journal.start ~context:"perfbench fleet ledger" path in
  let plain = create () and journalled = create ~journal () in
  let stats = layer () and l3 = layer () in
  let grown = ref 0 and batch = ref 0 in
  let apply ~timed events =
    let id = !batch in
    incr batch;
    let symbols = Traffic.symbols_in events in
    ignore (Session_table.apply plain ~batch_id:id events);
    if timed then begin
      measure stats ~batch:id ~name:"session_table.stats" ~symbols:0 (fun () ->
          stats_calls plain);
      let before = Measure.file_size path in
      ignore
        (measure l3 ~batch:id ~name:"shard_journal.apply" ~symbols (fun () ->
             Session_table.apply journalled ~batch_id:id events));
      grown := !grown + Stdlib.max 0 (Measure.file_size path - before)
    end
    else ignore (Session_table.apply journalled ~batch_id:id events)
  in
  for j = 0 to Traffic.fleet_setup_batches - 1 do
    apply ~timed:false (Traffic.fleet_setup_batch f j)
  done;
  for b = 0 to f.Traffic.f_timed_batches - 1 do
    apply ~timed:true (Traffic.fleet_timed_batch f b)
  done;
  [
    Measure.metric ~n:256 "online.snapshot_bytes" "bytes" (snapshot_bytes f ~sessions:256);
    Measure.metric ~n:(n stats) "session_table.stats_us" "us"
      (Measure.percentile stats.per_call_us 50.0);
  ]
  @ rate_rows "shard_journal" l3
  @ latency_rows "shard_journal" l3
  @ [
      Measure.metric ~n:(n l3) "shard_journal.bytes_per_batch" "bytes"
        (float_of_int !grown /. float_of_int (n l3));
      Measure.metric "shard_journal.compactions" "count"
        (float_of_int (Shard_journal.compactions journal));
    ]

(* --- L5: the server, observed from outside ------------------------------- *)

let serve_rows (p : Sockets.phase) =
  let b = p.Sockets.before and a = p.Sockets.after in
  let symbols = float_of_int p.Sockets.symbols in
  let gc = Option.get p.Sockets.gc in
  let pauses = gc.Server.pauses_us in
  [
    Measure.metric "serve.busy_frac" "ratio"
      (float_of_int (a.Frame.busy_ns - b.Frame.busy_ns) /. 1e9 /. Sockets.wall_s p);
    Measure.metric "serve.apply_p50_us" "us" (float_of_int a.Frame.p50_batch_ns /. 1000.0);
    Measure.metric "serve.apply_p99_us" "us" (float_of_int a.Frame.p99_batch_ns /. 1000.0);
    Measure.metric "serve.cpu_ns_per_sym" "ns/sym" (p.Sockets.server_cpu_s *. 1e9 /. symbols);
    Measure.metric "serve.rejections" "count" (float_of_int (a.Frame.rejected - b.Frame.rejected));
    Measure.metric ~n:gc.Server.minors "serve.minor_gcs_per_msym" "1/Msym"
      (float_of_int gc.Server.minors /. (symbols /. 1e6));
    Measure.metric ~n:(Measure.count pauses) "serve.gc_pause_p99_us" "us"
      (Measure.percentile pauses 99.0);
    Measure.metric ~n:(Measure.count pauses) "serve.gc_pause_max_ms" "ms"
      (Measure.percentile pauses 100.0 /. 1000.0);
    Measure.metric "serve.gc_lost_events" "count" (float_of_int gc.Server.lost);
  ]

let fleet_serve_rows (p : Sockets.phase) =
  let late = Option.get p.Sockets.late_ms and latencies = Sockets.latencies p in
  [
    Measure.metric ~n:(Measure.count latencies) "serve.outside_apply_p50_us" "us"
      ((Measure.percentile latencies 50.0 *. 1000.0)
      -. (float_of_int p.Sockets.after.Frame.p50_batch_ns /. 1000.0));
    Measure.metric ~n:(Measure.count late) "client.late_p99_ms" "ms"
      (Measure.percentile late 99.0);
    Measure.metric "client.cpu_s" "s" p.Sockets.client_cpu_s;
  ]

(* Client spans of a traced socket phase: one per batch, due or send
   time to settlement. *)
let client_span prefix id t0 t1 = ignore (span ~batch:id (prefix ^ ".batch") t0 t1)
