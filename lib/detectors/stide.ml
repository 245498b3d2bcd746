open Seqdiv_stream

type model = { window : int; trie : Seq_trie.t }

let name = "stide"
let maximal_epsilon = 0.0

let of_trie trie ~window =
  assert (window >= 1 && window <= Seq_trie.max_len trie);
  { window; trie }

let train ~window trace =
  assert (window >= 2);
  if Trace.length trace < window then
    (* lint: allow partiality — documented precondition *)
    invalid_arg "Stide.train: trace shorter than window";
  of_trie (Seq_trie.of_trace ~max_len:window trace) ~window

let train_of_trie = Some of_trie
let window m = m.window
let trie m = m.trie

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
        let score =
          if Seq_trie.mem_at m.trie data ~pos:start ~len:m.window then 0.0
          else 1.0
        in
        { Response.start; cover = m.window; score })
  in
  Response.make ~detector:name ~window:m.window items

let score m trace =
  let lo, hi =
    Detector.full_range ~trace_len:(Trace.length trace) ~window:m.window
  in
  score_range m trace ~lo ~hi

(* Compiled form: a full-depth state is a recorded window (score 0),
   anything shallower is foreign (score 1) — exactly [mem_at]. *)
let compile_model m =
  let auto = Flat_automaton.compile m.trie ~depth:m.window in
  Some
    (Flat_automaton.make_scorer auto ~score:(fun s ->
         if Flat_automaton.state_depth auto s = m.window then 0.0 else 1.0))

let compile = Some compile_model
