open Seqdiv_stream

type model = {
  window : int;
  k : int;  (* alphabet size: the uniform-prediction denominator *)
  trie : Seq_trie.t;  (* indexes the training trace >= window deep *)
  smoothing : float;  (* Laplace constant; 0 = maximum likelihood *)
}

let name = "markov"

(* A continuation that was never observed scores exactly 1.  An observed
   continuation is treated as maximally anomalous when its estimated
   probability falls below the paper's rare-sequence threshold (0.5 %,
   Section 5.3) — this is precisely the sense in which the paper says the
   Markov detector "will detect foreign sequences as well as a variety of
   rare sequences" while Stide detects only foreign ones. *)
let maximal_epsilon = 0.005

(* The conditional-count table is the trie itself: a context is the
   depth-(window-1) node on its symbol path, the denominator is that
   node's continuation total and each numerator is a child count.  A
   context that only ever occurred at the very end of the training trace
   never continued, so its continuation total is 0 — [Seq_trie.context_at]
   reports such contexts as absent, exactly like the window-sliding
   hashtable build that never saw them. *)

let of_trie trie ~window =
  assert (window >= 2);
  assert (window <= Seq_trie.max_len trie);
  { window; k = Seq_trie.alphabet_size trie; trie; smoothing = 0.0 }

let train ~window trace =
  assert (window >= 2);
  if Trace.length trace < window then
    (* lint: allow partiality — documented precondition *)
    invalid_arg "Markov.train: trace shorter than window";
  of_trie (Seq_trie.of_trace ~max_len:window trace) ~window

let train_of_trie = Some of_trie

let with_smoothing m ~alpha =
  assert (alpha >= 0.0);
  { m with smoothing = alpha }

let smoothing m = m.smoothing

let window m = m.window
let context_length m = m.window - 1

let contexts m =
  let n = ref 0 in
  Seq_trie.iter_contexts m.trie ~depth:(context_length m) (fun _ _ -> incr n);
  !n

let fold_contexts m ~init ~f =
  let acc = ref init in
  Seq_trie.iter_contexts m.trie ~depth:(context_length m) (fun buf node ->
      let counts =
        Array.init m.k (fun s -> Seq_trie.continuation_count m.trie node s)
      in
      acc := f !acc ~context:(Array.copy buf) ~counts);
  !acc

let of_context_counts ~window ~alphabet_size entries =
  assert (window >= 2 && alphabet_size >= 1);
  (* Contexts may carry symbols beyond the nominal alphabet (a
     serialised model's contexts are free-standing numbers); widen the
     trie to admit them while keeping [k] — the smoothing denominator —
     as given. *)
  let trie_k =
    List.fold_left
      (fun acc (context, _) ->
        Array.fold_left (fun acc c -> Stdlib.max acc (c + 1)) acc context)
      alphabet_size entries
  in
  let trie = Seq_trie.create ~alphabet_size:trie_k ~max_len:window in
  let buf = Array.make window 0 in
  List.iter
    (fun (context, counts) ->
      if Array.length context <> window - 1 then
        (* lint: allow partiality — documented precondition *)
        invalid_arg "Markov.of_context_counts: context length";
      if Array.length counts <> alphabet_size then
        (* lint: allow partiality — documented precondition *)
        invalid_arg "Markov.of_context_counts: counts length";
      let total = Array.fold_left ( + ) 0 counts in
      (* lint: allow partiality — documented precondition *)
      if total <= 0 then invalid_arg "Markov.of_context_counts: empty context";
      Array.blit context 0 buf 0 (window - 1);
      Array.iteri
        (fun next count ->
          if count > 0 then begin
            buf.(window - 1) <- next;
            Seq_trie.add_many_at trie buf ~pos:0 ~len:window ~count
          end)
        counts)
    entries;
  { window; k = alphabet_size; trie; smoothing = 0.0 }

let probability_at m a ~pos ~next =
  let alpha = m.smoothing in
  match Seq_trie.context_at m.trie a ~pos ~len:(m.window - 1) with
  | None -> if alpha > 0.0 then 1.0 /. float_of_int m.k else 0.0
  | Some node ->
      let count =
        if next >= 0 && next < Seq_trie.alphabet_size m.trie then
          Seq_trie.continuation_count m.trie node next
        else 0
      in
      (float_of_int count +. alpha)
      /. (float_of_int (Seq_trie.context_total node) +. (alpha *. float_of_int m.k))

let probability m ~context ~next =
  assert (Array.length context = context_length m);
  assert (next >= 0 && next < m.k);
  probability_at m context ~pos:0 ~next

let score_range m trace ~lo ~hi =
  let lo, hi =
    Detector.clamp_range ~trace_len:(Trace.length trace) ~window:m.window ~lo
      ~hi
  in
  let data = Trace.raw trace in
  let ctx_len = context_length m in
  let n = Stdlib.max 0 (hi - lo + 1) in
  let items =
    Array.init n (fun i ->
        if i land 1023 = 0 then Seqdiv_util.Deadline.checkpoint ();
        let start = lo + i in
        let next = data.(start + ctx_len) in
        let score = 1.0 -. probability_at m data ~pos:start ~next in
        { Response.start; cover = m.window; score })
  in
  Response.make ~detector:name ~window:m.window items

let score m trace =
  let lo, hi =
    Detector.full_range ~trace_len:(Trace.length trace) ~window:m.window
  in
  score_range m trace ~lo ~hi

(* Compiled form (maximum likelihood only): a full-depth state's parent
   is exactly the window's context node, so the conditional probability
   is count(state) / ctotal(parent) — the [probability_at] expression
   with [alpha = 0], reproduced term for term ([x +. 0.0] and
   [0.0 *. k] are exact) so scores stay bit-identical.  Every shallower
   state means an unobserved continuation: probability 0, score 1.
   A smoothed model is not a per-state table over the trained trie
   (unobserved continuations of observed contexts score differently
   from unobserved contexts), so it declines to compile. *)
let compile_model ?automaton m =
  if m.smoothing > 0.0 then None
  else
    let auto = Detector.obtain_automaton ?automaton m.trie ~window:m.window in
    Some
      (Flat_automaton.make_scorer auto ~score:(fun s ->
           if Flat_automaton.state_depth auto s < m.window then 1.0
           else
             let count = Flat_automaton.state_count auto s in
             let ctotal =
               Flat_automaton.state_context_total auto
                 (Flat_automaton.state_parent auto s)
             in
             1.0 -. (float_of_int count /. float_of_int ctotal)))

let compile = Some compile_model
