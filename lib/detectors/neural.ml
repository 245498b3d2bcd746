open Seqdiv_stream
open Seqdiv_util

type params = {
  hidden : int;
  epochs : int;
  learning_rate : float;
  momentum : float;
  seed : int;
}

let default_params =
  { hidden = 24; epochs = 400; learning_rate = 0.5; momentum = 0.9; seed = 42 }

type model = {
  window : int;
  k : int;
  params : params;
  w1 : Matrix.t;  (* input × hidden: one row per input column *)
  b1 : float array;
  w2 : Matrix.t;  (* output × hidden *)
  b2 : float array;
  loss : float;
}

let name = "nn"

(* A softmax never reaches an exact zero; with the default training
   schedule the probability assigned to a continuation never (or very
   rarely) seen in training falls well below this bound, while common
   continuations stay close to 1. *)
let maximal_epsilon = 1e-2

let compile = None
let window m = m.window
let params m = m.params
let training_loss m = m.loss

(* Sparse evaluation (see the interface): the first layer sums the
   context's hot rows of [w1] with Matrix's one-hot row kernels, into
   per-prefix partial sums.  Everything after it replays the dense
   operations in their order: [h = tanh (w1ᵀ·x + b1)],
   [o = w2·h + b2], then a softmax that subtracts the ascending
   maximum, exponentiates, and divides by the ascending sum.  Loop
   state lives in parameters or caller-owned buffers: a ref
   accumulator, a closure or a fresh array would allocate per window in
   scoring (lint R11) and per pair in training. *)

(* The forward pass of the context whose hot rows are
   [hot.(pos..pos+ctx_len-1)], whose first [from] hot rows are those of
   the context [sums] last held: first-layer partial sums into [sums],
   hidden activations into [h], the continuation distribution into
   [o].  The softmax's maximum and sum accumulate in [cell.(0)],
   ascending: a float passed between calls of a recursive helper would
   be boxed. *)
let forward_into m hot ~pos ~from sums h o cell =
  let ctx_len = m.window - 1 and hidden = Array.length h in
  Matrix.sum_rows_into m.w1 hot ~pos ~len:ctx_len sums ~from;
  let last = (ctx_len - 1) * hidden in
  for i = 0 to hidden - 1 do
    h.(i) <- tanh (sums.(last + i) +. m.b1.(i))
  done;
  Matrix.mul_vec_into m.w2 h o;
  let n = Array.length o in
  for i = 0 to n - 1 do
    o.(i) <- o.(i) +. m.b2.(i)
  done;
  cell.(0) <- neg_infinity;
  for i = 0 to n - 1 do
    cell.(0) <- Float.max cell.(0) o.(i)
  done;
  let mx = cell.(0) in
  for i = 0 to n - 1 do
    o.(i) <- exp (o.(i) -. mx)
  done;
  cell.(0) <- 0.0;
  for i = 0 to n - 1 do
    cell.(0) <- cell.(0) +. o.(i)
  done;
  let z = cell.(0) in
  for i = 0 to n - 1 do
    o.(i) <- o.(i) /. z
  done

(* Hot row of context position [j] holding symbol [s]. *)
let hot_row m j s = (j * m.k) + s

(* Momentum step, as [Matrix.momentum_step]: v <- mu v - lr g;
   w <- w + v. *)
let step_vector p v g w =
  for i = 0 to Array.length v - 1 do
    v.(i) <- (p.momentum *. v.(i)) -. (p.learning_rate *. g.(i));
    w.(i) <- w.(i) +. v.(i)
  done

(* The number of leading context symbols of [w] equal to those of the
   context whose hot rows start at [hot.(prev)]. *)
let rec shared_prefix m hot prev w ctx_len j =
  if j < ctx_len && hot.(prev + j) = hot_row m j w.(j) then
    shared_prefix m hot prev w ctx_len (j + 1)
  else j

(* Training runs over the distinct (context, next) pairs of the training
   stream — the [window]-slice of its trie, in ascending order — with
   weights proportional to their counts; training on these is
   equivalent to training on the raw stream but far cheaper on
   repetitive data.  Within an epoch the weights do not change, so the
   forward pass runs once per distinct context, whose pairs are
   adjacent, and continues from the first-layer sums of the prefix it
   shares with the previous context; each pair's back-propagation then
   runs in pair order, as before. *)
let of_trie_with p trie ~window =
  assert (window >= 2 && window <= Seq_trie.max_len trie);
  assert (p.hidden > 0 && p.epochs >= 0);
  let k = Seq_trie.alphabet_size trie in
  let ctx_len = window - 1 in
  let input = ctx_len * k in
  let rng = Prng.create ~seed:p.seed in
  (* [w2] is drawn first, then [w1] row by row in its hidden × input
     shape and stored transposed. *)
  let w2 = Matrix.random rng ~rows:k ~cols:p.hidden ~scale:0.5 in
  let w1 =
    Matrix.transpose (Matrix.random rng ~rows:p.hidden ~cols:input ~scale:0.5)
  in
  let m =
    {
      window;
      k;
      params = p;
      w1;
      b1 = Array.make p.hidden 0.0;
      w2;
      b2 = Array.make k 0.0;
      loss = 0.0;
    }
  in
  (* Each distinct context once: its hot rows and the length of the
     prefix it shares with the previous context.  Each distinct pair
     once: its next symbol and weight.  The pairs of context [c] are
     [first.(c)] to [first.(c + 1) - 1]. *)
  let n = Seq_trie.distinct trie window in
  let total = float_of_int (Seq_trie.total trie window) in
  let hot = Array.make (n * ctx_len) 0 in
  let shared = Array.make n 0 in
  let first = Array.make (n + 1) n in
  let nexts = Array.make n 0 in
  let weights = Array.make n 0.0 in
  let contexts = ref 0 and q = ref 0 in
  Seq_trie.iter_slice trie ~depth:window (fun w c ->
      let s =
        if !contexts = 0 then 0
        else shared_prefix m hot ((!contexts - 1) * ctx_len) w ctx_len 0
      in
      if s < ctx_len then begin
        for j = 0 to ctx_len - 1 do
          hot.((!contexts * ctx_len) + j) <- hot_row m j w.(j)
        done;
        shared.(!contexts) <- s;
        first.(!contexts) <- !q;
        incr contexts
      end;
      nexts.(!q) <- w.(ctx_len);
      weights.(!q) <- float_of_int c /. total;
      incr q);
  let contexts = !contexts in
  (* Momentum, gradient and activation buffers, and the loss cell. *)
  let vw1 = Matrix.create ~rows:input ~cols:p.hidden in
  let vb1 = Array.make p.hidden 0.0 in
  let vw2 = Matrix.create ~rows:k ~cols:p.hidden in
  let vb2 = Array.make k 0.0 in
  let gw1 = Matrix.create ~rows:input ~cols:p.hidden in
  let gb1 = Array.make p.hidden 0.0 in
  let gw2 = Matrix.create ~rows:k ~cols:p.hidden in
  let gb2 = Array.make k 0.0 in
  let sums = Array.make (ctx_len * p.hidden) 0.0 in
  let h = Array.make p.hidden 0.0 in
  let probs = Array.make k 0.0 in
  let delta_o = Array.make k 0.0 in
  let back = Array.make p.hidden 0.0 in
  let delta_h = Array.make p.hidden 0.0 in
  let cell = Array.make 1 0.0 in
  let loss = Array.make 1 0.0 in
  for epoch = 1 to p.epochs do
    Deadline.checkpoint ();
    Matrix.scale_in_place gw1 0.0;
    Matrix.scale_in_place gw2 0.0;
    Array.fill gb1 0 p.hidden 0.0;
    Array.fill gb2 0 k 0.0;
    (* Only the last epoch's loss is reported. *)
    let last = epoch = p.epochs in
    for c = 0 to contexts - 1 do
      let pos = c * ctx_len in
      forward_into m hot ~pos ~from:shared.(c) sums h probs cell;
      for q = first.(c) to first.(c + 1) - 1 do
        let next = nexts.(q) and weight = weights.(q) in
        if last then
          loss.(0) <-
            loss.(0) -. (weight *. log (Float.max probs.(next) 1e-300));
        (* Output delta of softmax + cross-entropy: p - onehot(target). *)
        for j = 0 to k - 1 do
          let d = weight *. (probs.(j) -. if j = next then 1.0 else 0.0) in
          delta_o.(j) <- d;
          gb2.(j) <- gb2.(j) +. d
        done;
        Matrix.add_outer_tmul_into m.w2 delta_o h ~grad:gw2 ~back;
        for i = 0 to p.hidden - 1 do
          let d = back.(i) *. (1.0 -. (h.(i) *. h.(i))) in
          delta_h.(i) <- d;
          gb1.(i) <- gb1.(i) +. d
        done;
        Matrix.add_to_rows gw1 delta_h hot ~pos ~len:ctx_len
      done
    done;
    Matrix.momentum_step m.w1 ~velocity:vw1 ~grad:gw1 ~momentum:p.momentum
      ~rate:p.learning_rate;
    Matrix.momentum_step m.w2 ~velocity:vw2 ~grad:gw2 ~momentum:p.momentum
      ~rate:p.learning_rate;
    step_vector p vb1 gb1 m.b1;
    step_vector p vb2 gb2 m.b2
  done;
  { m with loss = loss.(0) }

let train_with p ~window trace =
  assert (window >= 2);
  if Trace.length trace < window then
    (* lint: allow partiality — documented precondition *)
    invalid_arg "Neural.train: trace shorter than window";
  of_trie_with p (Seq_trie.of_trace ~max_len:window trace) ~window

let train ~window trace = train_with default_params ~window trace
let train_of_trie = Some (of_trie_with default_params)

let predict m context =
  let ctx_len = m.window - 1 in
  assert (Array.length context = ctx_len);
  let hot =
    Array.mapi
      (fun j s ->
        if s < 0 || s >= m.k then
          (* lint: allow partiality — documented precondition *)
          invalid_arg "Neural.predict: context symbol outside the alphabet";
        hot_row m j s)
      context
  in
  let hidden = m.params.hidden in
  let sums = Array.make (ctx_len * hidden) 0.0 in
  let h = Array.make hidden 0.0 in
  let o = Array.make m.k 0.0 in
  forward_into m hot ~pos:0 ~from:0 sums h o (Array.make 1 0.0);
  o

(* Writes the hot rows of the context of the window at [start] into
   [hot], and tells whether every symbol of the window — context and
   next — is inside the model's alphabet. *)
let rec load_window_from m data hot start ctx_len j =
  if j >= ctx_len then data.(start + ctx_len) < m.k
  else
    let s = data.(start + j) in
    s < m.k
    && begin
         hot.(j) <- hot_row m j s;
         load_window_from m data hot start ctx_len (j + 1)
       end

let score_range m trace ~lo ~hi =
  let lo, hi =
    Detector.clamp_range ~trace_len:(Trace.length trace) ~window:m.window ~lo
      ~hi
  in
  let data = Trace.raw trace in
  let ctx_len = m.window - 1 in
  let hot = Array.make ctx_len 0 in
  let sums = Array.make (ctx_len * m.params.hidden) 0.0 in
  let h = Array.make m.params.hidden 0.0 in
  let o = Array.make m.k 0.0 in
  let cell = Array.make 1 0.0 in
  let n = Stdlib.max 0 (hi - lo + 1) in
  let items =
    Array.init n (fun i ->
        if i land 255 = 0 then Deadline.checkpoint ();
        let start = lo + i in
        (* A symbol outside the training alphabet makes the context or
           continuation unseen, which scores 1 as in Markov. *)
        let score =
          if load_window_from m data hot start ctx_len 0 then begin
            forward_into m hot ~pos:0 ~from:0 sums h o cell;
            Float.max 0.0 (1.0 -. o.(data.(start + ctx_len)))
          end
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
