open Seqdiv_stream
open Seqdiv_util

let src = Logs.Src.create "seqdiv.suite" ~doc:"Evaluation-suite construction"

module Log = (val Logs.src_log src)

type params = {
  alphabet_size : int;
  train_len : int;
  background_len : int;
  as_min : int;
  as_max : int;
  dw_min : int;
  dw_max : int;
  deviation : float;
  rare_threshold : float;
  seed : int;
}

let paper_params =
  {
    alphabet_size = 8;
    train_len = 1_000_000;
    background_len = 20_000;
    as_min = 2;
    as_max = 9;
    dw_min = 2;
    dw_max = 15;
    deviation = Generator.default_deviation;
    rare_threshold = 0.005;
    seed = 2005;
  }

let scaled_params ~train_len ~background_len =
  { paper_params with train_len; background_len }

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
  index : Seq_trie.t;
  streams : test_stream array;
}

let validate p =
  (* lint: allow partiality — documented precondition *)
  if p.alphabet_size < 5 then invalid_arg "Suite: alphabet_size < 5";
  (* lint: allow partiality — documented precondition *)
  if p.as_min < 2 then invalid_arg "Suite: as_min < 2";
  (* lint: allow partiality — documented precondition *)
  if p.as_max < p.as_min then invalid_arg "Suite: as_max < as_min";
  (* lint: allow partiality — documented precondition *)
  if p.dw_min < 2 then invalid_arg "Suite: dw_min < 2";
  (* lint: allow partiality — documented precondition *)
  if p.dw_max < p.dw_min then invalid_arg "Suite: dw_max < dw_min";
  if p.rare_threshold <= 0.0 || p.rare_threshold >= 1.0 then
    (* lint: allow partiality — documented precondition *)
    invalid_arg "Suite: rare_threshold out of range";
  (* lint: allow partiality — documented precondition *)
  if p.train_len < 1000 then invalid_arg "Suite: train_len too small"

let build p =
  validate p;
  let alphabet = Alphabet.make p.alphabet_size in
  let chain = Markov_chain.paper_chain alphabet ~deviation:p.deviation in
  let rng = Prng.create ~seed:p.seed in
  let training = Generator.training chain rng ~len:p.train_len in
  Log.info (fun m ->
      m "training stream: %d elements, cycle fraction %.4f" p.train_len
        (Generator.cycle_fraction training));
  let max_len = Stdlib.max p.dw_max (p.as_max + 1) in
  let index = Seq_trie.of_trace ~max_len training in
  Log.debug (fun m ->
      m "n-gram index built to depth %d (%d distinct 2-grams)" max_len
        (Seq_trie.distinct index 2));
  let background = Generator.background alphabet ~len:p.background_len ~phase:0 in
  let n_as = p.as_max - p.as_min + 1 in
  let n_dw = p.dw_max - p.dw_min + 1 in
  let candidates_by_size =
    Array.init n_as (fun i ->
        let size = p.as_min + i in
        let candidates =
          Mfs.candidates index alphabet ~size ~rare_threshold:p.rare_threshold
        in
        Log.debug (fun m ->
            m "%d minimal-foreign-sequence candidates of size %d"
              (List.length candidates) size);
        candidates)
  in
  let streams =
    Array.init (n_as * n_dw) (fun cell ->
        let anomaly_size = p.as_min + (cell / n_dw) in
        let window = p.dw_min + (cell mod n_dw) in
        let candidates = candidates_by_size.(cell / n_dw) in
        match
          Injector.inject_first index ~background ~candidates ~width:window
        with
        | Some injection -> { anomaly_size; window; injection }
        | None ->
            Injector.no_clean_injection
              "Suite.build: no clean injection for anomaly size %d at window \
               %d (training stream of %d elements; %d candidate anomalies \
               tried)"
              anomaly_size window p.train_len (List.length candidates))
  in
  { params = p; alphabet; chain; training; index; streams }

let stream t ~anomaly_size ~window =
  let p = t.params in
  assert (anomaly_size >= p.as_min && anomaly_size <= p.as_max);
  assert (window >= p.dw_min && window <= p.dw_max);
  let n_dw = p.dw_max - p.dw_min + 1 in
  t.streams.(((anomaly_size - p.as_min) * n_dw) + (window - p.dw_min))

let range lo hi = List.init (hi - lo + 1) (fun i -> lo + i)
let anomaly_sizes t = range t.params.as_min t.params.as_max
let windows t = range t.params.dw_min t.params.dw_max
