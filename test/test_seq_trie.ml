open Seqdiv_stream
open Seqdiv_test_support

(* Count of a free-standing sequence. *)
let count t l =
  let a = Array.of_list l in
  Seq_trie.count_at t a ~pos:0 ~len:(Array.length a)

let mem t l = count t l > 0

let is_rare t ~threshold l =
  let a = Array.of_list l in
  Seq_trie.is_rare_at t ~threshold a ~pos:0 ~len:(Array.length a)

(* Relative frequency of a free-standing sequence among same-length
   windows. *)
let freq t l =
  let n = List.length l in
  float_of_int (count t l) /. float_of_int (Seq_trie.total t n)

(* The window of [trace] at [pos], as a hashable array. *)
let window trace ~pos ~len = Array.sub (Trace.raw trace) pos len

(* Independent reference for trie correctness: window counts collected
   into a plain hashtable straight from the trace. *)
let hash_counts trace ~len =
  let tbl = Hashtbl.create 64 in
  Trace.iter_windows trace ~width:len (fun pos ->
      let k = window trace ~pos ~len in
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
          (fun k c acc ->
            acc && Seq_trie.count_at trie k ~pos:0 ~len:(Array.length k) = c)
          tbl true
      in
      let cursor_ok = ref true in
      Trace.iter_windows trace ~width:len (fun pos ->
          let expect = Hashtbl.find tbl (window trace ~pos ~len) in
          if Seq_trie.count_at trie data ~pos ~len <> expect then
            cursor_ok := false);
      keyed_ok && !cursor_ok
      && Seq_trie.distinct trie len = Hashtbl.length tbl
      && Seq_trie.total trie len = Trace.window_count trace ~width:len)
    (List.init max_len (fun i -> i + 1))

let test_empty () =
  let t = Seq_trie.create ~alphabet_size:8 ~max_len:4 in
  Alcotest.(check int) "count" 0 (count t [ 0; 1 ]);
  Alcotest.(check bool) "foreign" false (mem t [ 0 ]);
  Alcotest.(check int) "total" 0 (Seq_trie.total t 2);
  Alcotest.(check int) "one node (root)" 1 (Seq_trie.node_count t)

let test_add_counts_prefixes () =
  let t = Seq_trie.create ~alphabet_size:8 ~max_len:3 in
  Seq_trie.add_many_at t [| 0; 1; 2 |] ~pos:0 ~len:3 ~count:1;
  Seq_trie.add_many_at t [| 0; 1; 3 |] ~pos:0 ~len:3 ~count:1;
  Alcotest.(check int) "prefix 0" 2 (count t [ 0 ]);
  Alcotest.(check int) "prefix 01" 2 (count t [ 0; 1 ]);
  Alcotest.(check int) "012" 1 (count t [ 0; 1; 2 ]);
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
  check_float "freq 01" ~epsilon:1e-9 0.5 (freq t [ 0; 1 ]);
  check_float "freq absent" ~epsilon:0.0 0.0 (freq t [ 1; 1 ])

let test_is_rare () =
  let symbols = List.init 200 (fun i -> if i = 100 then 2 else i mod 2) in
  let t = Seq_trie.of_trace ~max_len:2 (trace8 symbols) in
  Alcotest.(check bool) "rare symbol" true
    (is_rare t ~threshold:0.05 [ 2 ]);
  Alcotest.(check bool) "common not rare" false
    (is_rare t ~threshold:0.05 [ 0 ]);
  Alcotest.(check bool) "foreign not rare" false
    (is_rare t ~threshold:0.05 [ 3 ])

let test_cursor_lookups () =
  let trace = trace8 [ 0; 1; 2; 0; 1; 3 ] in
  let t = Seq_trie.of_trace ~max_len:3 trace in
  let data = Trace.raw trace in
  Alcotest.(check bool) "mem_at 01" true (Seq_trie.mem_at t data ~pos:0 ~len:2);
  Alcotest.(check int) "count_at 01" 2 (Seq_trie.count_at t data ~pos:0 ~len:2);
  Alcotest.(check int) "count_at 012" 1
    (Seq_trie.count_at t data ~pos:0 ~len:3);
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
  (* add_many_at records the slice and every prefix, so of_trace is one
     single-count addition per position at the tail-clamped depth *)
  let n = List.length symbols in
  for pos = 0 to n - 1 do
    Seq_trie.add_many_at inc data ~pos ~len:(Stdlib.min 3 (n - pos)) ~count:1
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
      seen := (Array.copy buf, count) :: !seen);
  let bindings = List.rev !seen in
  let keys = List.map fst bindings in
  Alcotest.(check bool) "ascending order" true (List.sort compare keys = keys);
  let tbl = hash_counts trace ~len:2 in
  Alcotest.(check int) "all distinct pairs visited" (Hashtbl.length tbl)
    (List.length bindings);
  List.iter
    (fun (k, c) ->
      Alcotest.(check int)
        (Printf.sprintf "count of %d,%d" k.(0) k.(1))
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

let test_of_traces_boundaries () =
  (* Two sessions: 0 1 2 | 3 0 1.  The 2-gram 2,3 only exists across
     the boundary, so it must be absent; every other count is the sum
     of the per-session counts. *)
  let a = trace8 [ 0; 1; 2 ] and b = trace8 [ 3; 0; 1 ] in
  let t = Seq_trie.of_traces ~max_len:3 [ a; b ] in
  Alcotest.(check int) "no spanning 2-gram" 0 (count t [ 2; 3 ]);
  Alcotest.(check int) "no spanning 3-gram" 0 (count t [ 1; 2; 3 ]);
  Alcotest.(check int) "0,1 in both" 2 (count t [ 0; 1 ]);
  Alcotest.(check int) "total 2-grams" 4 (Seq_trie.total t 2);
  Alcotest.(check int) "total 3-grams" 2 (Seq_trie.total t 3);
  let one = Seq_trie.of_traces ~max_len:3 [ a ] in
  Alcotest.(check bool) "of_trace = of_traces [t]" true
    (agrees_with_hash one a ~max_len:3
    && Seq_trie.node_count one
       = Seq_trie.node_count (Seq_trie.of_trace ~max_len:3 a))

let test_of_traces_alphabet () =
  let small = Trace.of_list (Alphabet.make 4) [ 0; 1; 3 ] in
  let large = Trace.of_list (Alphabet.make 300) [ 299; 0 ] in
  let t = Seq_trie.of_traces ~max_len:2 [ small; large ] in
  Alcotest.(check int) "largest alphabet" 300 (Seq_trie.alphabet_size t);
  Alcotest.(check int) "299,0" 1 (count t [ 299; 0 ])

(* --- a window slice as a detector's normal database ------------------- *)

let db_of l ~width =
  let t = Seq_trie.create ~alphabet_size:8 ~max_len:width in
  List.iter
    (fun w -> Seq_trie.add_many_at t (Array.of_list w) ~pos:0 ~len:width ~count:1)
    l;
  t

let test_db_empty () =
  let t = Seq_trie.create ~alphabet_size:8 ~max_len:3 in
  Alcotest.(check int) "total" 0 (Seq_trie.total t 3);
  Alcotest.(check int) "distinct" 0 (Seq_trie.distinct t 3);
  Alcotest.(check bool) "mem" false (mem t [ 0; 1; 2 ])

let test_db_add_counts () =
  let t = db_of ~width:2 [ [ 0; 1 ]; [ 0; 1 ]; [ 1; 2 ] ] in
  Alcotest.(check int) "total" 3 (Seq_trie.total t 2);
  Alcotest.(check int) "distinct" 2 (Seq_trie.distinct t 2);
  Alcotest.(check int) "count" 2 (count t [ 0; 1 ]);
  check_float "freq" ~epsilon:1e-9 (2.0 /. 3.0) (freq t [ 0; 1 ])

let test_db_of_trace () =
  (* 0 1 0 1 0 -> 2-windows: 01 10 01 10 *)
  let t = Seq_trie.of_trace ~max_len:2 (trace8 [ 0; 1; 0; 1; 0 ]) in
  Alcotest.(check int) "total = window count" 4 (Seq_trie.total t 2);
  Alcotest.(check int) "distinct" 2 (Seq_trie.distinct t 2);
  Alcotest.(check int) "01 twice" 2 (count t [ 0; 1 ])

(* 99 occurrences of 0 and one of 1, as 1-windows. *)
let skewed () = db_of ~width:1 ([ 1 ] :: List.init 99 (fun _ -> [ 0 ]))

let test_db_classification () =
  let t = skewed () in
  let threshold = 0.05 in
  Alcotest.(check bool) "common" true
    (mem t [ 0 ] && not (is_rare t ~threshold [ 0 ]));
  Alcotest.(check bool) "rare" true (is_rare t ~threshold [ 1 ]);
  Alcotest.(check bool) "foreign" false (mem t [ 2 ]);
  Alcotest.(check bool) "foreign not rare" false (is_rare t ~threshold [ 2 ])

let test_db_rare_common () =
  let t = skewed () in
  let rare = ref [] and common = ref [] in
  Seq_trie.iter_slice t ~depth:1 (fun w _ ->
      let l = Array.to_list w in
      if is_rare t ~threshold:0.05 l then rare := l :: !rare
      else common := l :: !common);
  Alcotest.(check (list (list int))) "rare" [ [ 1 ] ] !rare;
  Alcotest.(check (list (list int))) "common" [ [ 0 ] ] !common

let test_db_threshold_boundary () =
  (* Frequency exactly at the threshold counts as common, not rare. *)
  let t = db_of ~width:1 [ [ 0 ]; [ 1 ] ] in
  Alcotest.(check bool) "at threshold not rare" false
    (is_rare t ~threshold:0.5 [ 0 ]);
  Alcotest.(check bool) "at threshold present" true (mem t [ 0 ])

let db_gen = QCheck.(pair (list_of_size Gen.(5 -- 60) (int_bound 7)) (int_range 1 4))

let prop_db_total =
  qcheck "total = window count" db_gen (fun (l, width) ->
      QCheck.assume (List.length l >= width);
      let tr = trace8 l in
      Seq_trie.total (Seq_trie.of_trace ~max_len:width tr) width
      = Trace.window_count tr ~width)

let prop_db_members =
  qcheck "every window is a member" db_gen (fun (l, width) ->
      QCheck.assume (List.length l >= width);
      let tr = trace8 l in
      let t = Seq_trie.of_trace ~max_len:width tr in
      let ok = ref true in
      Trace.iter_windows tr ~width (fun pos ->
          if not (Seq_trie.mem_at t (Trace.raw tr) ~pos ~len:width) then
            ok := false);
      !ok)

let prop_db_freqs =
  qcheck "relative frequencies sum to 1" db_gen (fun (l, width) ->
      QCheck.assume (List.length l >= width);
      let t = Seq_trie.of_trace ~max_len:width (trace8 l) in
      let sum = ref 0.0 in
      Seq_trie.iter_slice t ~depth:width (fun w _ ->
          sum := !sum +. freq t (Array.to_list w));
      Float.abs (!sum -. 1.0) < 1e-9)

(* --- the synthesiser's multi-length n-gram index ------------------------ *)

let test_index_mem_per_length () =
  let t = Seq_trie.of_trace ~max_len:3 (trace8 [ 0; 1; 2; 0; 1 ]) in
  Alcotest.(check bool) "1-gram" true (mem t [ 2 ]);
  Alcotest.(check bool) "2-gram present" true (mem t [ 2; 0 ]);
  Alcotest.(check bool) "2-gram absent" false (mem t [ 1; 0 ]);
  Alcotest.(check bool) "3-gram present" true (mem t [ 0; 1; 2 ]);
  Alcotest.(check bool) "3-gram absent" false (mem t [ 1; 2; 1 ])

let test_index_count () =
  let t = Seq_trie.of_trace ~max_len:2 (trace8 [ 0; 1; 0; 1; 0 ]) in
  Alcotest.(check int) "01 twice" 2 (count t [ 0; 1 ]);
  Alcotest.(check int) "absent" 0 (count t [ 1; 1 ])

let test_index_slices () =
  let t = Seq_trie.of_trace ~max_len:4 (trace8 [ 0; 1; 2; 3; 4; 5 ]) in
  Alcotest.(check int) "max_len" 4 (Seq_trie.max_len t);
  Alcotest.(check int) "distinct 3-grams" 4 (Seq_trie.distinct t 3);
  Alcotest.(check int) "total 4-grams" 3 (Seq_trie.total t 4)

let test_index_rare_foreign () =
  (* 0 repeated with a single 1: the 2-gram (0,1) is rare. *)
  let symbols = List.init 200 (fun i -> if i = 100 then 1 else 0) in
  let t = Seq_trie.of_trace ~max_len:2 (trace8 symbols) in
  Alcotest.(check bool) "rare" true (is_rare t ~threshold:0.05 [ 0; 1 ]);
  Alcotest.(check bool) "common not rare" false
    (is_rare t ~threshold:0.05 [ 0; 0 ]);
  Alcotest.(check bool) "foreign" false (mem t [ 1; 1 ])

let verdict =
  Alcotest.testable
    (fun ppf v ->
      Format.pp_print_string ppf
        (match v with
        | Seqdiv_synth.Mfs.Ok_minimal_foreign -> "minimal foreign"
        | Not_foreign c -> Printf.sprintf "not foreign (%d)" c
        | Sub_foreign (p, l) -> Printf.sprintf "sub-foreign (%d, %d)" p l
        | Too_short -> "too short"))
    ( = )

let test_index_minimal_foreign () =
  (* trace: 0 1 2 3 0 2 ... the 2-gram (3,1) is absent while 3 and 1
     occur. *)
  let t = Seq_trie.of_trace ~max_len:3 (trace8 [ 0; 1; 2; 3; 0; 2 ]) in
  let verify l = Seqdiv_synth.Mfs.verify t (Array.of_list l) in
  Alcotest.check verdict "minimal foreign 2-gram" Ok_minimal_foreign
    (verify [ 3; 1 ]);
  Alcotest.check verdict "present not MFS" (Not_foreign 1) (verify [ 0; 1 ]);
  Alcotest.check verdict "present 3-gram" (Not_foreign 1) (verify [ 1; 2; 3 ]);
  (* (0,2) present, (2,3) present, full absent -> MFS *)
  Alcotest.check verdict "3-gram MFS" Ok_minimal_foreign (verify [ 0; 2; 3 ])

let test_index_sub_foreign () =
  (* (1,1,2): sub 2-gram (1,1) is foreign, so not minimal. *)
  let t = Seq_trie.of_trace ~max_len:3 (trace8 [ 0; 1; 2; 0; 1; 2 ]) in
  Alcotest.check verdict "sub-foreign rejected" (Sub_foreign (0, 2))
    (Seqdiv_synth.Mfs.verify t [| 1; 1; 2 |])

let prop_index_totals =
  qcheck "counts per length sum to window count"
    QCheck.(list_of_size Gen.(4 -- 50) (int_bound 7))
    (fun l ->
      let tr = trace8 l in
      let t = Seq_trie.of_trace ~max_len:3 tr in
      List.for_all
        (fun n -> Seq_trie.total t n = Trace.window_count tr ~width:n)
        [ 1; 2; 3 ])

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
          Alcotest.test_case "of_traces respects session boundaries" `Quick
            test_of_traces_boundaries;
          Alcotest.test_case "of_traces takes the largest alphabet" `Quick
            test_of_traces_alphabet;
        ] );
      (* A window slice as a detector's normal database: the sequence
         database of Stide, t-stide and the text model format. *)
      ( "seq_db",
        [
          Alcotest.test_case "empty" `Quick test_db_empty;
          Alcotest.test_case "add counts" `Quick test_db_add_counts;
          Alcotest.test_case "of_trace" `Quick test_db_of_trace;
          Alcotest.test_case "classification" `Quick test_db_classification;
          Alcotest.test_case "rare/common keys" `Quick test_db_rare_common;
          Alcotest.test_case "threshold boundary" `Quick
            test_db_threshold_boundary;
          prop_db_total;
          prop_db_members;
          prop_db_freqs;
        ] );
      (* The multi-length n-gram index of the data synthesiser
         ([Suite.index]), and the minimality queries Mfs asks of it. *)
      ( "ngram_index",
        [
          Alcotest.test_case "mem per length" `Quick test_index_mem_per_length;
          Alcotest.test_case "count" `Quick test_index_count;
          Alcotest.test_case "db access" `Quick test_index_slices;
          Alcotest.test_case "rare/foreign" `Quick test_index_rare_foreign;
          Alcotest.test_case "minimal foreign basics" `Quick
            test_index_minimal_foreign;
          Alcotest.test_case "sub-foreign rejected" `Quick
            test_index_sub_foreign;
          prop_index_totals;
        ] );
    ]
