open Seqdiv_stream
open Seqdiv_synth

(* The virtual clock for deadline tests lives in its own compilation
   unit; re-export it through the library interface. *)
module Fake_clock = Fake_clock

let alphabet8 = Alphabet.make 8

let trace8 l = Trace.of_list alphabet8 l

let small_params =
  Suite.scaled_params ~train_len:40_000 ~background_len:2_000

let tiny_params =
  {
    (Suite.scaled_params ~train_len:30_000 ~background_len:1_500) with
    Suite.dw_max = 8;
  }

let cache = Hashtbl.create 4

let cached key build =
  match Hashtbl.find_opt cache key with
  | Some suite -> suite
  | None ->
      let suite = build () in
      Hashtbl.add cache key suite;
      suite

let small_suite () = cached "small" (fun () -> Suite.build small_params)
let tiny_suite () = cached "tiny" (fun () -> Suite.build tiny_params)

let bench_params =
  {
    (Suite.scaled_params ~train_len:150_000 ~background_len:8_000) with
    Suite.seed = 7;
  }

let bench_suite () = cached "bench" (fun () -> Suite.build bench_params)

let training_chain () =
  Markov_chain.paper_chain alphabet8 ~deviation:Generator.default_deviation

let qcheck ?(count = 200) name arbitrary prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count ~name arbitrary prop)

let check_float name ~epsilon expected actual =
  Alcotest.(check (float epsilon)) name expected actual
