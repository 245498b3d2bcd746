(* Golden-file regression tests: the rendered outputs — ascii maps,
   CSV export, and the T1 coverage table — of three small grids
   (healthy, fatal chaos, deadline timeout) compared byte-for-byte
   against fixtures under [test/golden/].  Every scenario is fully
   deterministic (fixed suite seed, stateless fault plan, virtual-clock
   deadline), so any byte of drift is a real behaviour change.

   To update the fixtures after an intentional change, run
   [scripts/promote-golden.sh] and review the diff like any other code. *)

open Seqdiv_core
open Seqdiv_detectors
open Seqdiv_report
open Seqdiv_util
open Seqdiv_test_support

let golden_dir =
  (* The promote script points this at the source tree; under
     [dune runtest] the fixtures are staged next to the executable. *)
  match Sys.getenv_opt "SEQDIV_GOLDEN_DIR" with
  | Some d -> d
  | None -> "golden"

let grid ?fault_plan ?deadline names =
  let e = Engine.create ~jobs:1 ?fault_plan ?deadline () in
  Experiment.all_maps ~engine:e (tiny_suite ())
    (List.map Registry.find_exn names)

let render maps =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "== ascii ==\n";
  List.iter
    (fun m ->
      Buffer.add_string buf (Ascii_map.render m);
      Buffer.add_char buf '\n')
    maps;
  Buffer.add_string buf "== csv ==\n";
  Buffer.add_string buf
    (Csv.of_rows
       ~header:[ "detector"; "anomaly_size"; "window"; "outcome"; "max_response" ]
       (List.concat_map Csv.map_rows maps));
  Buffer.add_string buf "== t1 ==\n";
  Buffer.add_string buf (Paper.table1 maps);
  Buffer.contents buf

let gen_healthy () = render (grid [ "stide"; "markov" ])

let gen_chaos () =
  (* A fatal fault plan: failures fire from the stateless per-key hash,
     so the same cells fail with the same rendered faults every run. *)
  let plan = Fault_plan.of_seed ~transient_rate:0.0 ~fatal_rate:0.1 ~seed:7 () in
  render (grid ~fault_plan:plan [ "stide"; "markov" ])

let gen_timeout () =
  (* Virtual clock at 1 ms per read, 12 ms budget.  Legitimate tasks of
     the tiny suite read the clock under ten times (trie scan
     30k/4096 ≈ 8, score loops ≤ 2), so they all finish; the neural
     detector checkpoints every training epoch and dies at epoch ~11 of
     400 — every nn cell degrades to Failed/timeout, deterministically,
     with no wall-clock sleeping. *)
  let clock = Fake_clock.create ~step_ms:1.0 in
  let deadline = Deadline.spec ~clock:(Fake_clock.clock clock) ~budget_ms:12 in
  render (grid ~deadline [ "stide"; "nn" ])

let scenarios =
  [ ("healthy", gen_healthy); ("chaos", gen_chaos); ("timeout", gen_timeout) ]

let fixture name = Filename.concat golden_dir (name ^ ".txt")

let promote () =
  List.iter
    (fun (name, gen) ->
      let path = fixture name in
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc (gen ()));
      Printf.printf "promoted %s\n" path)
    scenarios

let check_golden name gen () =
  let path = fixture name in
  if not (Sys.file_exists path) then
    Alcotest.failf "missing fixture %s — run scripts/promote-golden.sh" path;
  let expected = In_channel.with_open_bin path In_channel.input_all in
  Alcotest.(check string)
    (Printf.sprintf "%s grid matches %s byte-for-byte" name path)
    expected (gen ())

let () =
  match Sys.getenv_opt "SEQDIV_GOLDEN_PROMOTE" with
  | Some _ -> promote ()
  | None ->
      Alcotest.run "golden"
        [
          ( "grids",
            List.map
              (fun (name, gen) ->
                Alcotest.test_case name `Slow (check_golden name gen))
              scenarios );
        ]
