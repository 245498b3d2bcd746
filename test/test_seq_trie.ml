open Seqdiv_stream
open Seqdiv_test_support

let key l = Trace.key_of_symbols (Array.of_list l)

(* Independent reference for trie correctness: window counts collected
   into a plain hashtable straight from the trace.  (Ngram_index is
   itself trie-backed now, so it can no longer serve as the oracle.) *)
let hash_counts trace ~len =
  let tbl = Hashtbl.create 64 in
  Trace.iter_windows trace ~width:len (fun pos ->
      let k = Trace.key trace ~pos ~len in
      Hashtbl.replace tbl k
        (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k)));
  tbl

let agrees_with_hash trie trace ~max_len =
  let data = Trace.raw trace in
  List.for_all
    (fun len ->
      let tbl = hash_counts trace ~len in
      let keyed_ok =
        Hashtbl.fold
          (fun k c acc -> acc && Seq_trie.count trie k = c)
          tbl true
      in
      let cursor_ok = ref true in
      Trace.iter_windows trace ~width:len (fun pos ->
          let expect = Hashtbl.find tbl (Trace.key trace ~pos ~len) in
          if Seq_trie.count_at trie data ~pos ~len <> expect then
            cursor_ok := false);
      keyed_ok && !cursor_ok
      && Seq_trie.distinct trie len = Hashtbl.length tbl
      && Seq_trie.total trie len = Trace.window_count trace ~width:len)
    (List.init max_len (fun i -> i + 1))

let test_empty () =
  let t = Seq_trie.create ~alphabet_size:8 ~max_len:4 in
  Alcotest.(check int) "count" 0 (Seq_trie.count t (key [ 0; 1 ]));
  Alcotest.(check bool) "foreign" true (Seq_trie.is_foreign t (key [ 0 ]));
  Alcotest.(check int) "total" 0 (Seq_trie.total t 2);
  Alcotest.(check int) "one node (root)" 1 (Seq_trie.node_count t)

let test_add_counts_prefixes () =
  let t = Seq_trie.create ~alphabet_size:8 ~max_len:3 in
  Seq_trie.add t [| 0; 1; 2 |];
  Seq_trie.add t [| 0; 1; 3 |];
  Alcotest.(check int) "prefix 0" 2 (Seq_trie.count t (key [ 0 ]));
  Alcotest.(check int) "prefix 01" 2 (Seq_trie.count t (key [ 0; 1 ]));
  Alcotest.(check int) "012" 1 (Seq_trie.count t (key [ 0; 1; 2 ]));
  Alcotest.(check int) "distinct at 3" 2 (Seq_trie.distinct t 3);
  Alcotest.(check int) "distinct at 2" 1 (Seq_trie.distinct t 2)

let test_of_trace_totals () =
  let trace = trace8 [ 0; 1; 2; 3; 4 ] in
  let t = Seq_trie.of_trace ~max_len:3 trace in
  Alcotest.(check int) "total 1-grams" 5 (Seq_trie.total t 1);
  Alcotest.(check int) "total 2-grams" 4 (Seq_trie.total t 2);
  Alcotest.(check int) "total 3-grams" 3 (Seq_trie.total t 3)

let test_freq () =
  let trace = trace8 [ 0; 1; 0; 1; 0 ] in
  let t = Seq_trie.of_trace ~max_len:2 trace in
  check_float "freq 01" ~epsilon:1e-9 0.5 (Seq_trie.freq t (key [ 0; 1 ]));
  check_float "freq absent" ~epsilon:0.0 0.0 (Seq_trie.freq t (key [ 1; 1 ]))

let test_is_rare () =
  let symbols = List.init 200 (fun i -> if i = 100 then 2 else i mod 2) in
  let t = Seq_trie.of_trace ~max_len:2 (trace8 symbols) in
  Alcotest.(check bool) "rare symbol" true
    (Seq_trie.is_rare t ~threshold:0.05 (key [ 2 ]));
  Alcotest.(check bool) "common not rare" false
    (Seq_trie.is_rare t ~threshold:0.05 (key [ 0 ]));
  Alcotest.(check bool) "foreign not rare" false
    (Seq_trie.is_rare t ~threshold:0.05 (key [ 3 ]))

let test_cursor_lookups () =
  let trace = trace8 [ 0; 1; 2; 0; 1; 3 ] in
  let t = Seq_trie.of_trace ~max_len:3 trace in
  let data = Trace.raw trace in
  Alcotest.(check bool) "mem_at 01" true (Seq_trie.mem_at t data ~pos:0 ~len:2);
  Alcotest.(check int) "count_at 01" 2 (Seq_trie.count_at t data ~pos:0 ~len:2);
  Alcotest.(check int) "count_at 012" 1
    (Seq_trie.count_at t data ~pos:0 ~len:3);
  check_float "freq_at 01" ~epsilon:1e-9 0.4
    (Seq_trie.freq_at t data ~pos:0 ~len:2);
  (* free-standing probe array, including an out-of-alphabet symbol *)
  let probe = [| 1; 2; 999 |] in
  Alcotest.(check bool) "probe 12" true (Seq_trie.mem_at t probe ~pos:0 ~len:2);
  Alcotest.(check bool) "out-of-alphabet absent" false
    (Seq_trie.mem_at t probe ~pos:1 ~len:2);
  Alcotest.(check int) "out-of-alphabet count" 0
    (Seq_trie.count_at t probe ~pos:2 ~len:1)

let test_context_semantics () =
  (* 0 1 0 1 0: context [0] continues twice (pos 0, 2) and once dangles
     at the tail; context [1] always continues with 0. *)
  let trace = trace8 [ 0; 1; 0; 1; 0 ] in
  let t = Seq_trie.of_trace ~max_len:2 trace in
  let data = Trace.raw trace in
  (match Seq_trie.context_at t data ~pos:0 ~len:1 with
  | None -> Alcotest.fail "context [0] should exist"
  | Some node ->
      Alcotest.(check int) "ctotal [0]" 2 (Seq_trie.context_total node);
      Alcotest.(check int) "cont [0]->1" 2
        (Seq_trie.continuation_count t node 1);
      Alcotest.(check int) "cont [0]->0" 0
        (Seq_trie.continuation_count t node 0));
  (* a context seen only at the very end of the trace never continued:
     it must look absent to Markov *)
  let tail = trace8 [ 0; 1; 2 ] in
  let t2 = Seq_trie.of_trace ~max_len:2 tail in
  (match Seq_trie.context_at t2 (Trace.raw tail) ~pos:2 ~len:1 with
  | None -> ()
  | Some _ -> Alcotest.fail "tail-only context must be absent");
  Alcotest.(check int) "tail symbol still counted" 1
    (Seq_trie.count_at t2 (Trace.raw tail) ~pos:2 ~len:1)

let test_add_at_matches_of_trace () =
  let symbols = [ 0; 3; 1; 3; 2; 0; 3; 1; 1; 0 ] in
  let trace = trace8 symbols in
  let data = Trace.raw trace in
  let bulk = Seq_trie.of_trace ~max_len:3 trace in
  let inc = Seq_trie.create ~alphabet_size:8 ~max_len:3 in
  (* add_at records the slice and every prefix, so of_trace is one
     add_at per position at the tail-clamped depth *)
  let n = List.length symbols in
  for pos = 0 to n - 1 do
    Seq_trie.add_at inc data ~pos ~len:(Stdlib.min 3 (n - pos))
  done;
  Alcotest.(check bool) "incremental = bulk" true
    (agrees_with_hash inc trace ~max_len:3);
  Alcotest.(check int) "same nodes" (Seq_trie.node_count bulk)
    (Seq_trie.node_count inc)

let test_large_alphabet () =
  let alphabet = Alphabet.make 300 in
  let trace = Trace.of_array alphabet [| 0; 299; 7; 299; 0; 299 |] in
  let t = Seq_trie.of_trace ~max_len:2 trace in
  let data = Trace.raw trace in
  Alcotest.(check int) "count symbol 299" 3 (Seq_trie.count_at t data ~pos:1 ~len:1);
  Alcotest.(check int) "count 299,7" 1 (Seq_trie.count_at t data ~pos:1 ~len:2);
  Alcotest.(check int) "distinct pairs" 4 (Seq_trie.distinct t 2);
  Alcotest.(check int) "alphabet size" 300 (Seq_trie.alphabet_size t)

let test_iter_slice_sorted () =
  let trace = trace8 [ 3; 1; 3; 0; 3; 1 ] in
  let t = Seq_trie.of_trace ~max_len:2 trace in
  let seen = ref [] in
  Seq_trie.iter_slice t ~depth:2 (fun buf count ->
      seen := (Trace.key_of_symbols buf, count) :: !seen);
  let bindings = List.rev !seen in
  let keys = List.map fst bindings in
  Alcotest.(check bool) "ascending key order" true
    (List.sort String.compare keys = keys);
  let tbl = hash_counts trace ~len:2 in
  Alcotest.(check int) "all distinct pairs visited" (Hashtbl.length tbl)
    (List.length bindings);
  List.iter
    (fun (k, c) ->
      Alcotest.(check int) ("count of " ^ String.escaped k)
        (Hashtbl.find tbl k) c)
    bindings

let test_agrees_on_suite_prefix () =
  let suite = tiny_suite () in
  let training =
    Trace.sub suite.Seqdiv_synth.Suite.training ~pos:0 ~len:5_000
  in
  let trie = Seq_trie.of_trace ~max_len:6 training in
  Alcotest.(check bool) "full agreement" true
    (agrees_with_hash trie training ~max_len:6)

let test_pp_stats () =
  let trace = trace8 [ 0; 1; 2; 3 ] in
  let t = Seq_trie.of_trace ~max_len:2 trace in
  let s = Format.asprintf "%a" Seq_trie.pp_stats t in
  Alcotest.(check bool) "stats mentions nodes" true
    (String.length s > 0 && String.sub s 0 5 = "trie{")

let test_lookup_allocation () =
  (* The cursor lookups descend over the raw trace array and allocate
     nothing.  2N window lookups must allocate exactly what N do: the
     loop's fixed cost is the same, and a lookup costs 0 words.  The
     probes are the windows of an injected test stream, so the hit path
     and the early-exit miss path both run. *)
  let suite = tiny_suite () in
  let width = 6 in
  let trie =
    Seq_trie.of_trace ~max_len:width suite.Seqdiv_synth.Suite.training
  in
  let test = Seqdiv_synth.Suite.stream suite ~anomaly_size:4 ~window:width in
  let probe = test.Seqdiv_synth.Suite.injection.Seqdiv_synth.Injector.trace in
  let data = Trace.raw probe in
  let starts = Trace.window_count probe ~width in
  let hits = ref 0 and misses = ref 0 in
  let words lookups =
    let before = Gc.minor_words () in
    for i = 0 to lookups - 1 do
      let pos = i mod starts in
      if Seq_trie.mem_at trie data ~pos ~len:width then
        hits := !hits + Seq_trie.count_at trie data ~pos ~len:width
      else incr misses
    done;
    Gc.minor_words () -. before
  in
  let n = 4 * starts in
  let once = words n in
  let twice = words (2 * n) in
  Alcotest.(check (float 0.0)) "zero words per lookup" once twice;
  Alcotest.(check bool) "hits and misses" true (!hits > 0 && !misses > 0)

let symbols_gen = QCheck.(list_of_size Gen.(3 -- 80) (int_bound 7))

let prop_counts_match_hash_reference =
  qcheck ~count:80 "trie counts = hashtable reference" symbols_gen (fun l ->
      let trace = trace8 l in
      let depth = Stdlib.min 4 (List.length l) in
      let trie = Seq_trie.of_trace ~max_len:depth trace in
      agrees_with_hash trie trace ~max_len:depth)

let prop_ctotal_is_continuations =
  qcheck ~count:80 "ctotal = windows that continue" symbols_gen (fun l ->
      let trace = trace8 l in
      let depth = Stdlib.min 4 (List.length l) in
      if depth < 2 then true
      else begin
        let trie = Seq_trie.of_trace ~max_len:depth trace in
        let data = Trace.raw trace in
        let ok = ref true in
        for len = 1 to depth - 1 do
          Trace.iter_windows trace ~width:len (fun pos ->
              let expect =
                (* occurrences of this slice that are followed by one
                   more symbol, counted the slow way *)
                let c = ref 0 in
                Trace.iter_windows trace ~width:(len + 1) (fun p ->
                    let same = ref true in
                    for i = 0 to len - 1 do
                      if data.(p + i) <> data.(pos + i) then same := false
                    done;
                    if !same then incr c);
                !c
              in
              match Seq_trie.context_at trie data ~pos ~len with
              | None -> if expect <> 0 then ok := false
              | Some node ->
                  if Seq_trie.context_total node <> expect then ok := false)
        done;
        !ok
      end)

let prop_totals_match_window_counts =
  qcheck ~count:80 "trie totals = window counts" symbols_gen (fun l ->
      let trace = trace8 l in
      let depth = Stdlib.min 4 (List.length l) in
      let trie = Seq_trie.of_trace ~max_len:depth trace in
      List.for_all
        (fun n -> Seq_trie.total trie n = Trace.window_count trace ~width:n)
        (List.init depth (fun i -> i + 1)))

let () =
  Alcotest.run "seq_trie"
    [
      ( "seq_trie",
        [
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "add counts prefixes" `Quick test_add_counts_prefixes;
          Alcotest.test_case "of_trace totals" `Quick test_of_trace_totals;
          Alcotest.test_case "freq" `Quick test_freq;
          Alcotest.test_case "is_rare" `Quick test_is_rare;
          Alcotest.test_case "cursor lookups" `Quick test_cursor_lookups;
          Alcotest.test_case "context semantics" `Quick test_context_semantics;
          Alcotest.test_case "add_at matches of_trace" `Quick
            test_add_at_matches_of_trace;
          Alcotest.test_case "alphabet beyond 256" `Quick test_large_alphabet;
          Alcotest.test_case "iter_slice sorted" `Quick test_iter_slice_sorted;
          Alcotest.test_case "agrees on suite prefix" `Quick
            test_agrees_on_suite_prefix;
          Alcotest.test_case "pp_stats" `Quick test_pp_stats;
          Alcotest.test_case "no allocation per lookup" `Quick
            test_lookup_allocation;
          prop_counts_match_hash_reference;
          prop_ctotal_is_continuations;
          prop_totals_match_window_counts;
        ] );
    ]
