open Seqdiv_stream
open Seqdiv_test_support

let sample = "100 5\n100 3\n200 5\n100 7\n200 3\n"

let test_parse_groups_by_pid () =
  let sessions, mapping = Syscall_trace.parse sample in
  Alcotest.(check int) "two processes" 2 (Sessions.count sessions);
  (match Sessions.traces sessions with
  | [ first; second ] ->
      (* pid 100: calls 5 3 7 -> symbols 0 1 2; pid 200: 5 3 -> 0 1 *)
      Alcotest.(check (array int)) "pid 100 events" [| 0; 1; 2 |]
        (Trace.to_array first);
      Alcotest.(check (array int)) "pid 200 events" [| 0; 1 |]
        (Trace.to_array second)
  | _ -> Alcotest.fail "expected two sessions");
  Alcotest.(check (array int)) "mapping" [| 5; 3; 7 |] mapping

let test_parse_compacts_alphabet () =
  let sessions, mapping = Syscall_trace.parse "1 1000\n1 5\n1 1000\n" in
  Alcotest.(check int) "two distinct calls" 2 (Array.length mapping);
  Alcotest.(check int) "alphabet size" 2
    (Alphabet.size (Sessions.alphabet sessions));
  Alcotest.(check int) "call name" 1000 (Syscall_trace.syscall_name mapping 0)

let test_parse_tabs_and_blanks () =
  let sessions, _ = Syscall_trace.parse "1\t5\n\n1  3\n" in
  Alcotest.(check int) "one process" 1 (Sessions.count sessions);
  Alcotest.(check int) "two events" 2 (Sessions.total_length sessions)

let test_parse_rejects_garbage () =
  let fails s =
    match Syscall_trace.parse s with
    | _ -> Alcotest.fail "expected Parse_error"
    | exception Seqdiv_stream.Parse_error.Error _ -> ()
  in
  fails "1 2 3\n";
  fails "x 2\n";
  fails "1 -2\n";
  fails ""

let test_render_round_trip () =
  let sessions, mapping = Syscall_trace.parse sample in
  let text = Syscall_trace.render sessions mapping in
  let reparsed, mapping2 = Syscall_trace.parse text in
  Alcotest.(check int) "same count" (Sessions.count sessions)
    (Sessions.count reparsed);
  Alcotest.(check (array int)) "same mapping" mapping mapping2;
  List.iter2
    (fun a b -> Alcotest.(check bool) "same trace" true (Trace.equal a b))
    (Sessions.traces sessions)
    (Sessions.traces reparsed)

let test_file_round_trip () =
  let path = Filename.temp_file "seqdiv" ".int" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc sample;
      close_out oc;
      let sessions, _ = Syscall_trace.parse_file path in
      Alcotest.(check int) "two processes" 2 (Sessions.count sessions))

let test_stide_on_parsed_sessions () =
  (* End-to-end: train Stide on parsed sessions, flag a foreign pattern. *)
  let text =
    String.concat ""
      (List.init 50 (fun i -> Printf.sprintf "%d 4\n%d 2\n%d 7\n" i i i))
  in
  let sessions, _ = Syscall_trace.parse text in
  let db = Seq_trie.of_traces ~max_len:2 (Sessions.traces sessions) in
  let stide = Seqdiv_detectors.Stide.of_trie db ~window:2 in
  let alphabet = Sessions.alphabet sessions in
  (* symbols: 4->0, 2->1, 7->2; the pair (2, 4) i.e. symbols (1, 0) never
     occurs inside a session *)
  let r =
    Seqdiv_detectors.Stide.score stide (Trace.of_list alphabet [ 1; 0 ])
  in
  Alcotest.(check (float 0.0)) "foreign within-session pair" 1.0
    (Seqdiv_detectors.Response.max_score r)

(* One process calling [calls] distinct numbers (sparse, from 1000),
   twice over. *)
let distinct_calls_trace calls =
  String.concat ""
    (List.init (2 * calls) (fun i -> Printf.sprintf "7 %d\n" (1000 + (3 * (i mod calls)))))

let test_wide_call_tables () =
  (* Wider than the 255 calls a byte alphabet held: parses, and stide
     trains on it and scores it. *)
  let sessions, mapping = Syscall_trace.parse (distinct_calls_trace 300) in
  Alcotest.(check int) "300 calls" 300 (Array.length mapping);
  Alcotest.(check int) "alphabet" 300 (Alphabet.size (Sessions.alphabet sessions));
  let db = Seq_trie.of_traces ~max_len:3 (Sessions.traces sessions) in
  let stide = Seqdiv_detectors.Stide.of_trie db ~window:3 in
  let trace = List.hd (Sessions.traces sessions) in
  Alcotest.(check (float 0.0)) "training trace is normal" 0.0
    (Seqdiv_detectors.Response.max_score (Seqdiv_detectors.Stide.score stide trace));
  let foreign = Trace.of_list (Sessions.alphabet sessions) [ 299; 0; 2 ] in
  Alcotest.(check (float 0.0)) "foreign window" 1.0
    (Seqdiv_detectors.Response.max_score (Seqdiv_detectors.Stide.score stide foreign));
  (* The bound itself parses; one call more is refused. *)
  let bound = Syscall_trace.max_distinct_calls in
  let _, mapping = Syscall_trace.parse (distinct_calls_trace bound) in
  Alcotest.(check int) "at the bound" bound (Array.length mapping);
  Alcotest.check_raises "past the bound"
    (Seqdiv_stream.Parse_error.Error "Syscall_trace.parse: too many distinct calls")
    (fun () -> ignore (Syscall_trace.parse (distinct_calls_trace (bound + 1))))

let prop_round_trip =
  qcheck ~count:60 "render/parse round trip"
    QCheck.(
      list_of_size Gen.(1 -- 5)
        (list_of_size Gen.(1 -- 20) (int_bound 6)))
    (fun sessions_symbols ->
      let alphabet = Alphabet.make 7 in
      let sessions =
        Sessions.of_traces
          (List.map (Trace.of_list alphabet) sessions_symbols)
      in
      let mapping = Array.init 7 (fun i -> 100 + i) in
      let reparsed, _ = Syscall_trace.parse (Syscall_trace.render sessions mapping) in
      List.length (Sessions.traces reparsed) = List.length sessions_symbols
      && List.for_all2
           (fun original reparsed_trace ->
             (* symbol identities may be renumbered; lengths and
                within-session equality pattern must survive *)
             Trace.length reparsed_trace = Trace.length original)
           (Sessions.traces sessions)
           (Sessions.traces reparsed))

let () =
  Alcotest.run "syscall_trace"
    [
      ( "syscall_trace",
        [
          Alcotest.test_case "groups by pid" `Quick test_parse_groups_by_pid;
          Alcotest.test_case "compacts alphabet" `Quick test_parse_compacts_alphabet;
          Alcotest.test_case "tabs and blanks" `Quick test_parse_tabs_and_blanks;
          Alcotest.test_case "rejects garbage" `Quick test_parse_rejects_garbage;
          Alcotest.test_case "render round trip" `Quick test_render_round_trip;
          Alcotest.test_case "file round trip" `Quick test_file_round_trip;
          Alcotest.test_case "stide end-to-end" `Quick test_stide_on_parsed_sessions;
          Alcotest.test_case "wide call tables" `Quick test_wide_call_tables;
          prop_round_trip;
        ] );
    ]
