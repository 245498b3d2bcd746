(* Byte-identity of the trie-backed detector hot paths.

   Each property rebuilds a detector the slow, obviously-correct way —
   int-list-keyed hash tables filled by a literal window scan, no
   strings, no tries — and demands the shipped Stide / t-stide / Markov
   implementations produce Response arrays that are equal to the bit,
   score floats included, across random traces, windows 2..15 and
   alphabets 2..300 (the trie path has no 256-symbol ceiling).  The
   same check is run against models built as views of a shared deeper
   trie, the engine's train-once layout. *)

open Seqdiv_stream
open Seqdiv_detectors
open Seqdiv_test_support

let window_slice data pos len = Array.to_list (Array.sub data pos len)

(* --- int-list-keyed reference implementations -------------------------- *)

let ref_db trace ~width =
  let tbl : (int list, int) Hashtbl.t = Hashtbl.create 64 in
  let data = Trace.to_array trace in
  let total = ref 0 in
  Trace.iter_windows trace ~width (fun pos ->
      let k = window_slice data pos width in
      Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k));
      incr total);
  (tbl, !total)

let ref_stide_scores training test ~window =
  let tbl, _ = ref_db training ~width:window in
  let data = Trace.to_array test in
  Array.init
    (Trace.length test - window + 1)
    (fun start ->
      if Hashtbl.mem tbl (window_slice data start window) then 0.0 else 1.0)

let ref_tstide_scores training test ~window ~threshold =
  let tbl, total = ref_db training ~width:window in
  let data = Trace.to_array test in
  Array.init
    (Trace.length test - window + 1)
    (fun start ->
      let c =
        Option.value ~default:0
          (Hashtbl.find_opt tbl (window_slice data start window))
      in
      let foreign = c = 0 in
      let rare =
        c > 0 && float_of_int c /. float_of_int total < threshold
      in
      if foreign || rare then 1.0 else 0.0)

let ref_markov_scores training test ~window =
  (* context table exactly as the pre-trie detector built it: one scan
     of width-[window] windows, conditional counts per context *)
  let table : (int list, (int, int) Hashtbl.t) Hashtbl.t = Hashtbl.create 64 in
  let totals : (int list, int) Hashtbl.t = Hashtbl.create 64 in
  let data = Trace.to_array training in
  let ctx_len = window - 1 in
  Trace.iter_windows training ~width:window (fun pos ->
      let ctx = window_slice data pos ctx_len in
      let next = data.(pos + ctx_len) in
      let counts =
        match Hashtbl.find_opt table ctx with
        | Some c -> c
        | None ->
            let c = Hashtbl.create 8 in
            Hashtbl.add table ctx c;
            c
      in
      Hashtbl.replace counts next
        (1 + Option.value ~default:0 (Hashtbl.find_opt counts next));
      Hashtbl.replace totals ctx
        (1 + Option.value ~default:0 (Hashtbl.find_opt totals ctx)));
  let tdata = Trace.to_array test in
  Array.init
    (Trace.length test - window + 1)
    (fun start ->
      let ctx = window_slice tdata start ctx_len in
      let next = tdata.(start + ctx_len) in
      match Hashtbl.find_opt table ctx with
      | None -> 1.0
      | Some counts ->
          let c = Option.value ~default:0 (Hashtbl.find_opt counts next) in
          let total = Hashtbl.find totals ctx in
          1.0 -. (float_of_int c /. float_of_int total))

(* --- comparison -------------------------------------------------------- *)

let scores_of (r : Response.t) =
  Array.map (fun (it : Response.item) -> it.Response.score) r.Response.items

let identical name expected (r : Response.t) ~window =
  if Array.length expected <> Array.length r.Response.items then
    QCheck.Test.fail_reportf "%s: %d items, expected %d" name
      (Array.length r.Response.items)
      (Array.length expected);
  Array.iteri
    (fun i (it : Response.item) ->
      if it.Response.start <> i || it.Response.cover <> window then
        QCheck.Test.fail_reportf "%s: item %d extent (start=%d cover=%d)" name
          i it.Response.start it.Response.cover;
      (* byte identity: exact float equality, not a tolerance *)
      if not (Float.equal it.Response.score expected.(i)) then
        QCheck.Test.fail_reportf "%s: item %d score %.17g, expected %.17g" name
          i it.Response.score expected.(i))
    r.Response.items;
  true

(* window 2..15, alphabet 2..300 (well past the old 256-symbol
   ceiling), training and test traces of independent lengths *)
let case_gen =
  QCheck.make
    ~print:(fun (k, w, train, test) ->
      Printf.sprintf "alphabet=%d window=%d train=[%s] test=[%s]" k w
        (String.concat ";" (List.map string_of_int train))
        (String.concat ";" (List.map string_of_int test)))
    QCheck.Gen.(
      int_range 2 300 >>= fun k ->
      int_range 2 15 >>= fun w ->
      list_size (int_range (w + 1) 120) (int_bound (k - 1)) >>= fun train ->
      list_size (int_range w 120) (int_bound (k - 1)) >>= fun test ->
      return (k, w, train, test))

let traces_of (k, _, train, test) =
  let alphabet = Alphabet.make k in
  (Trace.of_list alphabet train, Trace.of_list alphabet test)

let prop_stide =
  qcheck ~count:150 "stide = int-list reference (bit-exact)" case_gen
    (fun ((_, w, _, _) as case) ->
      let training, test = traces_of case in
      let expected = ref_stide_scores training test ~window:w in
      identical "stide" expected (Stide.score (Stide.train ~window:w training) test)
        ~window:w)

let prop_tstide =
  qcheck ~count:150 "tstide = int-list reference (bit-exact)" case_gen
    (fun ((_, w, _, _) as case) ->
      let training, test = traces_of case in
      let expected =
        ref_tstide_scores training test ~window:w
          ~threshold:Tstide.default_threshold
      in
      identical "tstide" expected
        (Tstide.score (Tstide.train ~window:w training) test)
        ~window:w)

let prop_markov =
  qcheck ~count:150 "markov = int-list reference (bit-exact)" case_gen
    (fun ((_, w, _, _) as case) ->
      let training, test = traces_of case in
      let expected = ref_markov_scores training test ~window:w in
      identical "markov" expected
        (Markov.score (Markov.train ~window:w training) test)
        ~window:w)

(* The engine layout: one trie, deeper than any single window, viewed
   by all three detectors — must equal per-detector training bit for
   bit. *)
let prop_shared_trie =
  qcheck ~count:150 "shared deeper trie = per-window training" case_gen
    (fun ((_, w, _, _) as case) ->
      let training, test = traces_of case in
      let trie = Seq_trie.of_trace ~max_len:(w + 2) training in
      identical "stide/of_trie"
        (scores_of (Stide.score (Stide.train ~window:w training) test))
        (Stide.score (Stide.of_trie trie ~window:w) test)
        ~window:w
      && identical "tstide/of_trie"
           (scores_of (Tstide.score (Tstide.train ~window:w training) test))
           (Tstide.score (Tstide.of_trie trie ~window:w) test)
           ~window:w
      && identical "markov/of_trie"
           (scores_of (Markov.score (Markov.train ~window:w training) test))
           (Markov.score (Markov.of_trie trie ~window:w) test)
           ~window:w)

(* score_range on the trie path still clamps and restricts exactly. *)
let prop_score_range =
  qcheck ~count:80 "score_range = restricted score" case_gen
    (fun ((_, w, _, _) as case) ->
      let training, test = traces_of case in
      let m = Stide.train ~window:w training in
      let full = Stide.score m test in
      let n = Array.length full.Response.items in
      let lo = n / 3 and hi = 2 * n / 3 in
      let part = Stide.score_range m test ~lo ~hi in
      Array.length part.Response.items = Stdlib.max 0 (hi - lo + 1)
      && Array.for_all
           (fun (it : Response.item) ->
             Float.equal it.Response.score
               full.Response.items.(it.Response.start).Response.score)
           part.Response.items)

(* --- nn and lnb beyond 255 symbols ------------------------------------- *)

(* A 300-symbol alphabet whose training trace uses symbols above 255,
   kept short so nn's 400 epochs stay cheap.  [train] must work, and the
   model built from a shared deeper trie must equal it bit for bit. *)
let big = Alphabet.make 300

let big_training =
  Trace.of_list big [ 0; 256; 299; 7; 0; 256; 299; 298; 0; 256; 7; 299; 0 ]

let big_test = Trace.of_list big [ 256; 299; 7; 0; 299; 256; 0; 256; 5; 299 ]

let of_trie_exn name = function
  | Some f -> f (Seq_trie.of_trace ~max_len:5 big_training) ~window:3
  | None -> Alcotest.fail (name ^ " has no train_of_trie")

let test_nn_large_alphabet () =
  let trained = Neural.train ~window:3 big_training in
  let viewed = of_trie_exn "nn" Neural.train_of_trie in
  Alcotest.(check bool) "training loss, bit for bit" true
    (Int64.equal
       (Int64.bits_of_float (Neural.training_loss trained))
       (Int64.bits_of_float (Neural.training_loss viewed)));
  let expected = scores_of (Neural.score trained big_test) in
  Alcotest.(check bool) "scores, bit for bit" true
    (identical "nn/of_trie" expected (Neural.score viewed big_test) ~window:3);
  Alcotest.(check bool) "predict, bit for bit" true
    (Array.for_all2 Float.equal
       (Neural.predict trained [| 256; 299 |])
       (Neural.predict viewed [| 256; 299 |]));
  Alcotest.(check bool) "scores in [0, 1]" true
    (Array.for_all (fun x -> x >= 0.0 && x <= 1.0) expected)

let test_lnb_large_alphabet () =
  let trained = Lane_brodley.train ~window:3 big_training in
  let viewed = of_trie_exn "lnb" Lane_brodley.train_of_trie in
  Alcotest.(check int) "instances" (Lane_brodley.instances trained)
    (Lane_brodley.instances viewed);
  Alcotest.(check (pair (array int) int)) "best match of a training window"
    ([| 256; 299; 7 |], Lane_brodley.max_similarity 3)
    (Lane_brodley.best_match viewed [| 256; 299; 7 |]);
  Alcotest.(check bool) "scores, bit for bit" true
    (identical "lnb/of_trie"
       (scores_of (Lane_brodley.score trained big_test))
       (Lane_brodley.score viewed big_test) ~window:3)

let () =
  Alcotest.run "trie_detectors"
    [
      ( "byte-identity",
        [
          prop_stide;
          prop_tstide;
          prop_markov;
          prop_shared_trie;
          prop_score_range;
        ] );
      ( "wide alphabet",
        [
          Alcotest.test_case "nn trains and scores on 300 symbols" `Quick
            test_nn_large_alphabet;
          Alcotest.test_case "lnb trains and scores on 300 symbols" `Quick
            test_lnb_large_alphabet;
        ] );
    ]
