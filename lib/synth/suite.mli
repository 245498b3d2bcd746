(** The full evaluation corpus of Section 5.4: one training stream plus
    one injected test stream for every (anomaly size, detector window)
    pair — 8 × 14 = 112 streams at the paper's parameters. *)

open Seqdiv_stream

type params = {
  alphabet_size : int;  (** paper: 8 *)
  train_len : int;  (** paper: 1,000,000 *)
  background_len : int;  (** length of each test stream's background *)
  as_min : int;  (** smallest anomaly size, paper: 2 *)
  as_max : int;  (** largest anomaly size, paper: 9 *)
  dw_min : int;  (** smallest detector window, paper: 2 *)
  dw_max : int;  (** largest detector window, paper: 15 *)
  deviation : float;  (** per-step cycle-deviation probability *)
  rare_threshold : float;  (** paper: 0.005 (0.5 %) *)
  seed : int;
}

val paper_params : params
(** The paper's parameters: alphabet 8, 1M-element training stream,
    AS 2..9, DW 2..15, rare threshold 0.5 %. *)

val scaled_params : train_len:int -> background_len:int -> params
(** [paper_params] with a smaller training stream and background — the
    n-gram statistics the experiment depends on are stable well below
    1M elements (see DESIGN.md §4). *)

type test_stream = {
  anomaly_size : int;
  window : int;
  injection : Injector.injection;
}

type t = {
  params : params;
  alphabet : Alphabet.t;
  chain : Markov_chain.t;
  training : Trace.t;
  index : Seq_trie.t;  (** n-grams of the training stream *)
  streams : test_stream array;  (** row-major over (AS, DW) *)
}

val build : params -> t
(** Generate the training stream, index it, construct minimal foreign
    sequences for every anomaly size and inject each one cleanly for
    every detector window.  Deterministic in [params.seed].

    @raise Failure if for some (AS, DW) no candidate anomaly admits a
    clean injection — the error names the cell; enlarging [train_len]
    resolves it. *)

val stream : t -> anomaly_size:int -> window:int -> test_stream
(** Look up the test stream of a cell.  Requires the cell to be within
    the parameter ranges. *)

val anomaly_sizes : t -> int list
(** [as_min .. as_max], ascending. *)

val windows : t -> int list
(** [dw_min .. dw_max], ascending. *)
