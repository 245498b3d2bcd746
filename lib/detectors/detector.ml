open Seqdiv_stream

module type S = sig
  type model

  val name : string
  val maximal_epsilon : float
  val train : window:int -> Trace.t -> model
  val train_of_trie : (Seq_trie.t -> window:int -> model) option
  val window : model -> int
  val score_range : model -> Trace.t -> lo:int -> hi:int -> Response.t
  val score : model -> Trace.t -> Response.t

  val compile : (model -> Flat_automaton.scorer option) option
end

type t = (module S)

let clamp_range ~trace_len ~window ~lo ~hi =
  let max_start = trace_len - window in
  (Stdlib.max 0 lo, Stdlib.min max_start hi)

let full_range ~trace_len ~window = (0, trace_len - window)

(* Shared batch-scoring loop over a compiled scorer: one automaton step
   and one score-table read per window.  The responses — and the
   checkpoint cadence, which an armed virtual-clock deadline observes —
   are exactly those of the trie-descent [score_range] loops. *)
let compiled_score_range scorer ~detector trace ~lo ~hi =
  let auto = Flat_automaton.automaton scorer in
  let window = Flat_automaton.depth auto in
  let lo, hi = clamp_range ~trace_len:(Trace.length trace) ~window ~lo ~hi in
  let data = Trace.raw trace in
  let n = Stdlib.max 0 (hi - lo + 1) in
  let items = Array.make n { Response.start = 0; cover = window; score = 0.0 } in
  if n > 0 then begin
    (* Warm up on the first window - 1 symbols; thereafter each consumed
       symbol completes the window ending at it. *)
    let state = ref Flat_automaton.start in
    for i = lo to lo + window - 2 do
      state := Flat_automaton.step auto !state data.(i)
    done;
    for i = 0 to n - 1 do
      if i land 1023 = 0 then Seqdiv_util.Deadline.checkpoint ();
      state := Flat_automaton.step auto !state data.(lo + i + window - 1);
      items.(i) <-
        {
          Response.start = lo + i;
          cover = window;
          score = Flat_automaton.state_score scorer !state;
        }
    done
  end;
  Response.make ~detector ~window items
