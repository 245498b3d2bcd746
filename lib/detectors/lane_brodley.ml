open Seqdiv_stream

type model = {
  window : int;
  instances : int array array;  (* distinct training windows *)
}

let name = "lnb"
let maximal_epsilon = 0.0

(* Allocation-free core of [similarity]: all state lives in the
   parameters — a ref accumulator or a local [let rec] closure would
   allocate on every scored window (lint R11).  The [int array]
   annotations matter: unconstrained, [a.(i) = b.(i)] is polymorphic
   equality, a [caml_equal] call on generic array reads in the
   innermost loop of every lnb cell. *)
let rec similarity_from (a : int array) (b : int array) n i run total =
  if i >= n then total
  else if a.(i) = b.(i) then
    let run = run + 1 in
    similarity_from a b n (i + 1) run (total + run)
  else similarity_from a b n (i + 1) 0 total

let similarity a b =
  let n = Array.length a in
  (* lint: allow partiality — documented precondition *)
  if Array.length b <> n then invalid_arg "Lane_brodley.similarity: lengths";
  similarity_from a b n 0 0 0

let max_similarity dw = dw * (dw + 1) / 2

(* The instances are the [window]-slice of the training trie, in
   ascending order. *)
let of_trie trie ~window =
  assert (window >= 2 && window <= Seq_trie.max_len trie);
  let instances = Array.make (Seq_trie.distinct trie window) [||] in
  let i = ref 0 in
  Seq_trie.iter_slice trie ~depth:window (fun w _count ->
      instances.(!i) <- Array.copy w;
      incr i);
  { window; instances }

let train ~window trace =
  assert (window >= 2);
  if Trace.length trace < window then
    (* lint: allow partiality — documented precondition *)
    invalid_arg "Lane_brodley.train: trace shorter than window";
  of_trie (Seq_trie.of_trace ~max_len:window trace) ~window

let train_of_trie = Some of_trie
let compile = None
let window m = m.window
let instances m = Array.length m.instances

(* Best similarity over the instance db without the (instance, score)
   pair [best_match] returns: the scoring path only needs the scalar,
   and the tuple would be a per-window allocation (lint R11).
   Similarities are non-negative, so seeding the fold with 0 computes
   the same maximum as seeding with the first instance. *)
let rec best_sim_from instances w i best =
  if i >= Array.length instances then best
  else
    let s = similarity w instances.(i) in
    best_sim_from instances w (i + 1) (if s > best then s else best)

let best_match m w =
  assert (Array.length w = m.window);
  assert (Array.length m.instances > 0);
  let best = ref m.instances.(0) in
  let best_sim = ref (similarity w m.instances.(0)) in
  Array.iter
    (fun inst ->
      let s = similarity w inst in
      if s > !best_sim then begin
        best := inst;
        best_sim := s
      end)
    m.instances;
  (!best, !best_sim)

let score_range m trace ~lo ~hi =
  let lo, hi =
    Detector.clamp_range ~trace_len:(Trace.length trace) ~window:m.window ~lo
      ~hi
  in
  let sim_max = float_of_int (max_similarity m.window) in
  let n = Stdlib.max 0 (hi - lo + 1) in
  let w = Array.make m.window 0 in
  let items =
    Array.init n (fun i ->
        (* Every window here scans the whole instance db ([best_match]),
           so checkpoint more often than the cheap per-window paths. *)
        if i land 255 = 0 then Seqdiv_util.Deadline.checkpoint ();
        let start = lo + i in
        for j = 0 to m.window - 1 do
          w.(j) <- Trace.get trace (start + j)
        done;
        let best_sim = best_sim_from m.instances w 0 0 in
        let score = 1.0 -. (float_of_int best_sim /. sim_max) in
        { Response.start; cover = m.window; score })
  in
  Response.make ~detector:name ~window:m.window items

let score m trace =
  let lo, hi =
    Detector.full_range ~trace_len:(Trace.length trace) ~window:m.window
  in
  score_range m trace ~lo ~hi
