(** Shared helpers for the test suites: canonical small fixtures and
    alcotest/qcheck glue. *)

open Seqdiv_stream
open Seqdiv_synth

module Fake_clock = Fake_clock
(** The deterministic virtual clock for deadline tests. *)

val alphabet8 : Alphabet.t
(** The paper's 8-symbol alphabet. *)

val trace8 : int list -> Trace.t
(** Build a trace over {!alphabet8}. *)

val small_params : Suite.params
(** Fast suite parameters for tests: 40k training elements, 2k
    backgrounds, full AS/DW ranges. *)

val small_suite : unit -> Suite.t
(** Build (and cache within the process) the small suite. *)

val tiny_params : Suite.params
(** Even faster: 30k training, reduced window range (DW 2..8) — for
    tests that train many models. *)

val tiny_suite : unit -> Suite.t
(** Cached tiny suite. *)

val bench_params : Suite.params
(** The benchmark scale at seed 7: 150k training, 8k backgrounds, full
    AS/DW ranges. *)

val bench_suite : unit -> Suite.t
(** Cached benchmark-scale suite. *)

val training_chain : unit -> Markov_chain.t
(** The paper chain over {!alphabet8} at the default deviation. *)

val qcheck : ?count:int -> string -> 'a QCheck.arbitrary -> ('a -> bool)
  -> unit Alcotest.test_case
(** Register a QCheck property as an alcotest case. *)

val check_float : string -> epsilon:float -> float -> float -> unit
(** Alcotest float comparison with absolute tolerance. *)
