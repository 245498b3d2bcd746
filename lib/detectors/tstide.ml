open Seqdiv_stream

let default_threshold = 0.005

type model = { window : int; threshold : float; trie : Seq_trie.t }

let name = "tstide"
let maximal_epsilon = 0.0

let of_trie trie ~window =
  assert (window >= 2 && window <= Seq_trie.max_len trie);
  { window; threshold = default_threshold; trie }

let train_with ~threshold ~window trace =
  assert (window >= 2);
  assert (threshold > 0.0 && threshold < 1.0);
  if Trace.length trace < window then
    (* lint: allow partiality — documented precondition *)
    invalid_arg "Tstide.train: trace shorter than window";
  { (of_trie (Seq_trie.of_trace ~max_len:window trace) ~window) with threshold }

let train ~window trace = train_with ~threshold:default_threshold ~window trace
let train_of_trie = Some of_trie
let window m = m.window
let threshold m = m.threshold

let score_range m trace ~lo ~hi =
  let lo, hi =
    Detector.clamp_range ~trace_len:(Trace.length trace) ~window:m.window ~lo
      ~hi
  in
  let data = Trace.raw trace in
  let n = Stdlib.max 0 (hi - lo + 1) in
  let items =
    Array.init n (fun i ->
        if i land 1023 = 0 then Seqdiv_util.Deadline.checkpoint ();
        let start = lo + i in
        let anomalous =
          (not (Seq_trie.mem_at m.trie data ~pos:start ~len:m.window))
          || Seq_trie.is_rare_at m.trie ~threshold:m.threshold data ~pos:start
               ~len:m.window
        in
        let score = if anomalous then 1.0 else 0.0 in
        { Response.start; cover = m.window; score })
  in
  Response.make ~detector:name ~window:m.window items

let score m trace =
  let lo, hi =
    Detector.full_range ~trace_len:(Trace.length trace) ~window:m.window
  in
  score_range m trace ~lo ~hi

(* Compiled form: a shallow state is a foreign window (score 1); a
   full-depth state carries the window's count, so the rarity test is
   the same division [Seq_trie.is_rare_at] performs (bit-identical
   float expression, [count >= 1] by construction). *)
let compile_model ?automaton m =
  let auto = Detector.obtain_automaton ?automaton m.trie ~window:m.window in
  let total = Seq_trie.total m.trie m.window in
  Some
    (Flat_automaton.make_scorer auto ~score:(fun s ->
         if Flat_automaton.state_depth auto s < m.window then 1.0
         else if
           float_of_int (Flat_automaton.state_count auto s)
           /. float_of_int total
           < m.threshold
         then 1.0
         else 0.0))

let compile = Some compile_model
