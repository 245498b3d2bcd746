(* The rule engine is a pure function from a file set to diagnostics,
   so every fixture here is an inline string.  Each test builds a tiny
   virtual tree, runs the engine, and checks which rules fire and
   where. *)

open Seqdiv_analysis

let file path content = Source.make ~path ~content

let contains_sub haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec at i =
    if i + nn > nh then false
    else if String.sub haystack i nn = needle then true
    else at (i + 1)
  in
  at 0

let run_on files = Rules.run files

let rules_of diags = List.map (fun d -> d.Diagnostic.rule) diags

let find_rule rule diags =
  List.filter (fun d -> d.Diagnostic.rule = rule) diags

(* A lib module that breaks no rule: total, silent, deterministic. *)
let clean_ml = "let double x = 2 * x\n"
let clean_mli = "val double : int -> int\n"

let clean_pair name =
  [
    file ("lib/" ^ name ^ ".ml") clean_ml;
    file ("lib/" ^ name ^ ".mli") clean_mli;
  ]

let test_clean_tree () =
  let diags = run_on (clean_pair "a" @ clean_pair "b") in
  Alcotest.(check (list string)) "no diagnostics" [] (rules_of diags)

(* R0: syntax errors surface as diagnostics, never exceptions. *)
let test_syntax_error () =
  let diags =
    run_on [ file "lib/broken.ml" "let x = (\n"; file "lib/broken.mli" "" ]
  in
  match find_rule "R0" diags with
  | [ d ] ->
      Alcotest.(check string) "file" "lib/broken.ml" d.Diagnostic.file;
      Alcotest.(check bool) "is error" true (Diagnostic.is_error d)
  | ds -> Alcotest.failf "expected one R0 diagnostic, got %d" (List.length ds)

(* R1: ambient randomness in lib code. *)
let test_r1_random () =
  let bad = "let roll () = Random.int 6\n" in
  let diags =
    run_on [ file "lib/dice.ml" bad; file "lib/dice.mli" "val roll : unit -> int\n" ]
  in
  match find_rule "R1" diags with
  | [ d ] ->
      Alcotest.(check string) "file" "lib/dice.ml" d.Diagnostic.file;
      Alcotest.(check int) "line" 1 d.Diagnostic.line;
      Alcotest.(check string) "name" "determinism" d.Diagnostic.rule_name
  | ds -> Alcotest.failf "expected one R1 diagnostic, got %d" (List.length ds)

(* R1 also covers qualified Stdlib paths and clock reads. *)
let test_r1_qualified_and_clock () =
  let bad = "let a () = Stdlib.Random.bits ()\nlet b () = Sys.time ()\n" in
  let diags =
    run_on
      [
        file "lib/clocky.ml" bad;
        file "lib/clocky.mli" "val a : unit -> int\nval b : unit -> float\n";
      ]
  in
  let r1 = find_rule "R1" diags in
  Alcotest.(check int) "two findings" 2 (List.length r1);
  Alcotest.(check (list int)) "lines" [ 1; 2 ]
    (List.map (fun d -> d.Diagnostic.line) r1)

(* R1: order-sensitive hash traversal. *)
let test_r1_hashtbl_iter () =
  let bad = "let dump t f = Hashtbl.iter f t\n" in
  let diags =
    run_on
      [
        file "lib/h.ml" bad;
        file "lib/h.mli" "val dump : ('a, 'b) Hashtbl.t -> ('a -> 'b -> unit) -> unit\n";
      ]
  in
  Alcotest.(check int) "one R1" 1 (List.length (find_rule "R1" diags))

(* The same constructs are fine outside lib/. *)
let test_r1_not_in_bin () =
  let diags = run_on [ file "bin/main.ml" "let () = Printf.printf \"%d\" (Random.int 6)\n" ] in
  Alcotest.(check (list string)) "bin is exempt" [] (rules_of diags)

(* R2: printing from library code. *)
let test_r2_print () =
  let bad = "let shout () = print_endline \"hi\"\nlet log () = Printf.eprintf \"x\"\n" in
  let diags =
    run_on
      [
        file "lib/noisy.ml" bad;
        file "lib/noisy.mli" "val shout : unit -> unit\nval log : unit -> unit\n";
      ]
  in
  let r2 = find_rule "R2" diags in
  Alcotest.(check int) "two findings" 2 (List.length r2);
  Alcotest.(check string) "name" "output-hygiene"
    (List.hd r2).Diagnostic.rule_name

(* R3: partial functions. *)
let test_r3_partiality () =
  let bad =
    "let a () = failwith \"boom\"\n\
     let b () = assert false\n\
     let c o = Option.get o\n\
     let d l = List.hd l\n"
  in
  let diags =
    run_on
      [
        file "lib/partial.ml" bad;
        file "lib/partial.mli"
          "val a : unit -> 'a\nval b : unit -> 'a\nval c : 'a option -> 'a\nval d : 'a list -> 'a\n";
      ]
  in
  let r3 = find_rule "R3" diags in
  Alcotest.(check (list int)) "all four lines" [ 1; 2; 3; 4 ]
    (List.map (fun d -> d.Diagnostic.line) r3)

(* Whitelist: an allow comment silences the line below, and only for
   the named rule. *)
let test_whitelist_suppresses () =
  let src =
    "(* lint: allow partiality -- documented precondition *)\n\
     let a () = failwith \"boom\"\n"
  in
  let diags =
    run_on [ file "lib/ok.ml" src; file "lib/ok.mli" "val a : unit -> 'a\n" ]
  in
  Alcotest.(check (list string)) "suppressed" [] (rules_of diags)

let test_whitelist_same_line () =
  let src =
    "let a () = failwith \"boom\" (* lint: allow R3 — fixture *)\n"
  in
  let diags =
    run_on [ file "lib/ok2.ml" src; file "lib/ok2.mli" "val a : unit -> 'a\n" ]
  in
  Alcotest.(check (list string)) "suppressed by id token" [] (rules_of diags)

let test_whitelist_wrong_rule () =
  let src =
    "(* lint: allow determinism — deliberately the wrong rule *)\n\
     let a () = failwith \"boom\"\n"
  in
  let diags =
    run_on [ file "lib/no.ml" src; file "lib/no.mli" "val a : unit -> 'a\n" ]
  in
  Alcotest.(check (list string)) "R3 still fires" [ "R3" ] (rules_of diags)

(* R4: a lib .ml with no matching .mli. *)
let test_r4_missing_mli () =
  let diags = run_on [ file "lib/orphan.ml" clean_ml ] in
  match find_rule "R4" diags with
  | [ d ] ->
      Alcotest.(check string) "file" "lib/orphan.ml" d.Diagnostic.file;
      Alcotest.(check int) "line" 1 d.Diagnostic.line
  | ds -> Alcotest.failf "expected one R4 diagnostic, got %d" (List.length ds)

let test_r4_not_for_test_role () =
  let diags = run_on [ file "test/test_x.ml" clean_ml ] in
  Alcotest.(check (list string)) "tests need no .mli" [] (rules_of diags)

(* R5: modules packed in the registry must expose the contract. *)
let registry_ml =
  "let all = [ (module Good : Detector.S); (module Bad : Detector.S) ]\n"

let good_mli =
  "val name : string\n\
   val train : window:int -> int -> int\n\
   val score : int -> int -> int\n"

let bad_mli = "val name : string\n"

let r5_tree =
  [
    file "lib/detectors/registry.ml" registry_ml;
    file "lib/detectors/registry.mli" "val all : int list\n";
    file "lib/detectors/good.ml" clean_ml;
    file "lib/detectors/good.mli" good_mli;
    file "lib/detectors/bad.ml" clean_ml;
    file "lib/detectors/bad.mli" bad_mli;
  ]

let test_r5_contract () =
  let r5 = find_rule "R5" (run_on r5_tree) in
  match r5 with
  | [ d ] ->
      Alcotest.(check string) "reported at the registry"
        "lib/detectors/registry.ml" d.Diagnostic.file;
      Alcotest.(check bool) "names the module" true
        (contains_sub d.Diagnostic.message "Bad")
  | ds -> Alcotest.failf "expected one R5 diagnostic, got %d" (List.length ds)

let test_r5_include_detector_s () =
  (* The repo's own idiom: [include Detector.S] satisfies the contract. *)
  let tree =
    [
      file "lib/detectors/registry.ml"
        "let all = [ (module Incl : Detector.S) ]\n";
      file "lib/detectors/registry.mli" "val all : int list\n";
      file "lib/detectors/incl.ml" clean_ml;
      file "lib/detectors/incl.mli" "include Detector.S\n";
    ]
  in
  Alcotest.(check (list string)) "include satisfies R5" []
    (rules_of (run_on tree))

(* Diagnostics render as file:line:col with the rule named — what the
   acceptance check greps for. *)
let test_diagnostic_rendering () =
  let diags =
    run_on
      [ file "lib/dice.ml" "let roll () = Random.int 6\n";
        file "lib/dice.mli" "val roll : unit -> int\n" ]
  in
  match diags with
  | [ d ] ->
      let s = Diagnostic.to_string d in
      Alcotest.(check bool) "has position" true
        (contains_sub s "lib/dice.ml:1:");
      Alcotest.(check bool) "names the rule" true
        (contains_sub s "R1")
  | ds -> Alcotest.failf "expected one diagnostic, got %d" (List.length ds)

(* R6: concurrency primitives in ordinary lib code. *)
let test_r6_domain_in_lib () =
  let bad = "let go f = Domain.join (Domain.spawn f)\n" in
  let diags =
    run_on
      [ file "lib/foo.ml" bad; file "lib/foo.mli" "val go : (unit -> 'a) -> 'a\n" ]
  in
  match find_rule "R6" diags with
  | d :: _ ->
      Alcotest.(check string) "file" "lib/foo.ml" d.Diagnostic.file;
      Alcotest.(check string) "name" "concurrency" d.Diagnostic.rule_name
  | [] -> Alcotest.fail "expected an R6 diagnostic"

(* R6 exempts the worker pool itself. *)
let test_r6_exempts_pool () =
  let body = "let go f = Domain.join (Domain.spawn f)\nlet c = Atomic.make 0\n" in
  let diags =
    run_on
      [
        file "lib/util/pool.ml" body;
        file "lib/util/pool.mli"
          "val go : (unit -> 'a) -> 'a\nval c : int Atomic.t\n";
      ]
  in
  Alcotest.(check (list string)) "no R6 in pool" []
    (rules_of (find_rule "R6" diags))

(* R6 is a library rule; executables may use Domain freely. *)
let test_r6_not_in_bin () =
  let diags =
    run_on [ file "bin/main.ml" "let () = Domain.join (Domain.spawn ignore)\n" ]
  in
  Alcotest.(check (list string)) "no R6 in bin" []
    (rules_of (find_rule "R6" diags))

(* R6 covers systhreads too: a Thread outside the exempt modules is a
   finding, inside serve.ml it is not. *)
let r6_thread_ml = "let go f = Thread.join (Thread.create f ())\n"
let r6_thread_mli = "val go : (unit -> unit) -> unit\n"

let test_r6_thread_in_lib () =
  let diags =
    run_on
      [
        file "lib/core/relay.ml" r6_thread_ml;
        file "lib/core/relay.mli" r6_thread_mli;
      ]
  in
  match find_rule "R6" diags with
  | d :: _ ->
      Alcotest.(check string) "file" "lib/core/relay.ml" d.Diagnostic.file;
      Alcotest.(check bool) "names Thread" true
        (contains_sub d.Diagnostic.message "Thread")
  | [] -> Alcotest.fail "expected an R6 diagnostic for Thread"

let test_r6_thread_in_serve () =
  let diags =
    run_on
      [
        file "lib/core/serve.ml" r6_thread_ml;
        file "lib/core/serve.mli" r6_thread_mli;
      ]
  in
  Alcotest.(check (list string)) "no R6 in serve" []
    (rules_of (find_rule "R6" diags))

(* R6 honours the standard whitelist comment. *)
let test_r6_whitelist () =
  let body =
    "(* lint: allow concurrency — measured fence *)\n\
     let c = Atomic.make 0\n"
  in
  let diags =
    run_on [ file "lib/fence.ml" body; file "lib/fence.mli" "val c : int Atomic.t\n" ]
  in
  Alcotest.(check (list string)) "suppressed" []
    (rules_of (find_rule "R6" diags))

(* R13: fsync and rename outside the write-ahead log. *)
let r13_body =
  "let sync oc = Unix.fsync (Unix.descr_of_out_channel oc)\n\
   let swap a b = Sys.rename a b\n\
   let swap' a b = Stdlib.Sys.rename a b; Unix.rename b a\n"

let r13_mli =
  "val sync : out_channel -> unit\n\
   val swap : string -> string -> unit\n\
   val swap' : string -> string -> unit\n"

let test_r13_outside_wal () =
  let diags =
    run_on
      [ file "lib/core/journal.ml" r13_body; file "lib/core/journal.mli" r13_mli ]
  in
  let r13 = find_rule "R13" diags in
  Alcotest.(check (list int)) "lines" [ 1; 2; 3; 3 ]
    (List.map (fun d -> d.Diagnostic.line) r13);
  List.iter
    (fun d ->
      Alcotest.(check string) "name" "durability" d.Diagnostic.rule_name;
      Alcotest.(check bool) "is error" true (Diagnostic.is_error d))
    r13

(* The write-ahead log is the one place durable writes live. *)
let test_r13_exempts_wal () =
  let diags =
    run_on [ file "lib/core/wal.ml" r13_body; file "lib/core/wal.mli" r13_mli ]
  in
  Alcotest.(check (list string)) "no diagnostics" [] (rules_of diags)

(* R7: string-key lookups inside a detector score path. *)
let r7_bad_ml =
  "let score_range m trace lo hi =\n\
  \  let key = Trace.key trace ~pos:lo ~len:hi in\n\
  \  Seq_trie.mem m key\n\
   let score m trace = score_range m trace 0 0\n"

let r7_mli = "val score_range : 'a -> 'b -> int -> int -> bool\nval score : 'a -> 'b -> bool\n"

let test_r7_score_path () =
  let diags =
    run_on
      [ file "lib/detectors/det.ml" r7_bad_ml;
        file "lib/detectors/det.mli" r7_mli ]
  in
  let r7 = find_rule "R7" diags in
  Alcotest.(check int) "two findings" 2 (List.length r7);
  Alcotest.(check (list int)) "lines" [ 2; 3 ]
    (List.map (fun d -> d.Diagnostic.line) r7);
  Alcotest.(check string) "name" "hot-path" (List.hd r7).Diagnostic.rule_name

(* Train-time key building is legitimate: R7 only guards score paths. *)
let test_r7_train_exempt () =
  let src =
    "let train ~window trace =\n\
    \  ignore window;\n\
    \  Trace.key trace ~pos:0 ~len:3\n"
  in
  let diags =
    run_on
      [ file "lib/detectors/tr.ml" src;
        file "lib/detectors/tr.mli" "val train : window:int -> 'a -> string\n" ]
  in
  Alcotest.(check (list string)) "no R7 outside score" []
    (rules_of (find_rule "R7" diags))

(* The rule is scoped to detector directories. *)
let test_r7_only_in_detectors () =
  let src = "let score_range t = Trace.key t ~pos:0 ~len:3\n" in
  let diags =
    run_on
      [ file "lib/stream/s.ml" src;
        file "lib/stream/s.mli" "val score_range : 'a -> string\n" ]
  in
  Alcotest.(check (list string)) "no R7 outside lib/detectors" []
    (rules_of (find_rule "R7" diags))

(* R7 honours the standard whitelist comment. *)
let test_r7_whitelist () =
  let src =
    "let score m k =\n\
    \  (* lint: allow hot-path — diagnostic slow path *)\n\
    \  Seq_trie.count m k\n"
  in
  let diags =
    run_on
      [ file "lib/detectors/wl.ml" src;
        file "lib/detectors/wl.mli" "val score : 'a -> string -> int\n" ]
  in
  Alcotest.(check (list string)) "suppressed" []
    (rules_of (find_rule "R7" diags))

(* Hash lookups in a score path are the replaced backend. *)
let test_r7_hashtbl () =
  let src = "let score m k = Hashtbl.find_opt m k\n" in
  let diags =
    run_on
      [ file "lib/detectors/ht.ml" src;
        file "lib/detectors/ht.mli" "val score : ('a, 'b) Hashtbl.t -> 'a -> 'b option\n" ]
  in
  Alcotest.(check int) "one finding" 1 (List.length (find_rule "R7" diags))

(* The cursor API is exactly what score paths should use. *)
let test_r7_cursor_clean () =
  let src = "let score_range m a pos = Seq_trie.mem_at m a ~pos\n" in
  let diags =
    run_on
      [ file "lib/detectors/cur.ml" src;
        file "lib/detectors/cur.mli"
          "val score_range : 'a -> int array -> int -> bool\n" ]
  in
  Alcotest.(check (list string)) "cursor API clean" []
    (rules_of (find_rule "R7" diags))

(* R8: catch-all exception handlers swallow faults the supervisor
   should see. *)
let test_r8_try_wildcard () =
  let src =
    "let a f = try f () with _ -> 0\n\
     let b f = try f () with e -> ignore e; 0\n"
  in
  let diags =
    run_on
      [ file "lib/sw.ml" src;
        file "lib/sw.mli" "val a : (unit -> int) -> int\nval b : (unit -> int) -> int\n" ]
  in
  let r8 = find_rule "R8" diags in
  Alcotest.(check (list int)) "both handlers" [ 1; 2 ]
    (List.map (fun d -> d.Diagnostic.line) r8);
  Alcotest.(check string) "name" "swallow" (List.hd r8).Diagnostic.rule_name

(* Match-time custody counts too: [match ... with exception e -> ...]. *)
let test_r8_match_exception () =
  let src = "let a f = match f () with v -> v | exception _ -> 0\n" in
  let diags =
    run_on
      [ file "lib/swm.ml" src;
        file "lib/swm.mli" "val a : (unit -> int) -> int\n" ]
  in
  Alcotest.(check int) "one finding" 1 (List.length (find_rule "R8" diags))

(* Naming the exceptions you expect is the sanctioned shape. *)
let test_r8_named_exception_clean () =
  let src =
    "let a f = try f () with Not_found -> 0 | Failure _ -> 1\n\
     let b f = match f () with v -> v | exception Exit -> 0\n"
  in
  let diags =
    run_on
      [ file "lib/swok.ml" src;
        file "lib/swok.mli" "val a : (unit -> int) -> int\nval b : (unit -> int) -> int\n" ]
  in
  Alcotest.(check (list string)) "named handlers clean" []
    (rules_of (find_rule "R8" diags))

(* The fault layer is exactly the module allowed this custody. *)
let test_r8_exempts_fault () =
  let src = "let a f = try f () with e -> ignore e; 0\n" in
  let diags =
    run_on
      [ file "lib/core/fault.ml" src;
        file "lib/core/fault.mli" "val a : (unit -> int) -> int\n" ]
  in
  Alcotest.(check (list string)) "fault.ml exempt" []
    (rules_of (find_rule "R8" diags))

(* R8 honours the standard whitelist comment. *)
let test_r8_whitelist () =
  let src =
    "let a f =\n\
    \  (* lint: allow swallow — best-effort cleanup *)\n\
    \  try f () with _ -> ()\n"
  in
  let diags =
    run_on
      [ file "lib/swwl.ml" src;
        file "lib/swwl.mli" "val a : (unit -> unit) -> unit\n" ]
  in
  Alcotest.(check (list string)) "suppressed" []
    (rules_of (find_rule "R8" diags))

(* R8 is a library rule; executables keep their top-level handlers. *)
let test_r8_not_in_bin () =
  let diags =
    run_on [ file "bin/main.ml" "let () = try () with _ -> ()\n" ] in
  Alcotest.(check (list string)) "no R8 in bin" []
    (rules_of (find_rule "R8" diags))

(* --- R9: checkpoint coverage over the whole-program call graph --------- *)

(* A detector score entry point that loops without ever reaching
   Deadline.checkpoint — the seeded violation. *)
let r9_bad_ml =
  "let score_range m trace lo hi =\n\
  \  let acc = Array.make 1 0 in\n\
  \  for i = lo to hi do acc.(0) <- acc.(0) + m + i done;\n\
  \  ignore trace;\n\
  \  acc.(0)\n"

let test_r9_missing_checkpoint () =
  let diags = run_on [ file "lib/detectors/ck.ml" r9_bad_ml ] in
  match find_rule "R9" diags with
  | [ d ] ->
      Alcotest.(check string) "file" "lib/detectors/ck.ml" d.Diagnostic.file;
      Alcotest.(check int) "at the binding" 1 d.Diagnostic.line;
      Alcotest.(check string) "name" "checkpoint" d.Diagnostic.rule_name;
      Alcotest.(check bool) "names the function" true
        (contains_sub d.Diagnostic.message "score_range")
  | ds -> Alcotest.failf "expected one R9 diagnostic, got %d" (List.length ds)

(* The same loop with a checkpoint inside is the sanctioned shape. *)
let test_r9_checkpointed_clean () =
  let src =
    "let score_range m trace lo hi =\n\
    \  let acc = Array.make 1 0 in\n\
    \  for i = lo to hi do\n\
    \    Deadline.checkpoint ();\n\
    \    acc.(0) <- acc.(0) + m + i\n\
    \  done;\n\
    \  ignore trace;\n\
    \  acc.(0)\n"
  in
  let diags = run_on [ file "lib/detectors/ck2.ml" src ] in
  Alcotest.(check (list string)) "checkpointed loop clean" []
    (rules_of (find_rule "R9" diags))

(* A guarded caller is enough: the loop itself need not checkpoint when
   every hot path into it already does. *)
let test_r9_guarded_by_caller () =
  let src =
    "let helper n =\n\
    \  let acc = Array.make 1 0 in\n\
    \  for i = 0 to n do acc.(0) <- acc.(0) + i done;\n\
    \  acc.(0)\n\
     let score_range m trace lo hi =\n\
    \  Deadline.checkpoint ();\n\
    \  ignore trace;\n\
    \  helper (m + lo + hi)\n"
  in
  let diags = run_on [ file "lib/detectors/ck3.ml" src ] in
  Alcotest.(check (list string)) "guarded via the caller" []
    (rules_of (find_rule "R9" diags))

(* R9 honours the standard whitelist comment. *)
let test_r9_whitelist () =
  let src =
    "(* lint: allow checkpoint — fixture loop is bounded *)\n" ^ r9_bad_ml
  in
  let diags = run_on [ file "lib/detectors/ck4.ml" src ] in
  Alcotest.(check (list string)) "suppressed" []
    (rules_of (find_rule "R9" diags))

(* Loops unreachable from any train/score root are not R9's business. *)
let test_r9_cold_loop_exempt () =
  let src =
    "let tabulate n =\n\
    \  let acc = Array.make 1 0 in\n\
    \  for i = 0 to n do acc.(0) <- acc.(0) + i done;\n\
    \  acc.(0)\n"
  in
  let diags = run_on [ file "lib/report/tab.ml" src ] in
  Alcotest.(check (list string)) "cold code exempt" []
    (rules_of (find_rule "R9" diags))

(* The flat-automaton compiler is a declared hot root: its loops need
   checkpoint coverage like any train-phase loop. *)
let r9_flat_bad_ml =
  "let compile trie depth =\n\
  \  let states = Array.make 4 0 in\n\
  \  for i = 0 to depth do states.(0) <- states.(0) + i + trie done;\n\
  \  states.(0)\n"

let test_r9_flat_compile_uncheckpointed () =
  let diags = run_on [ file "lib/stream/flat_automaton.ml" r9_flat_bad_ml ] in
  match find_rule "R9" diags with
  | [ d ] ->
      Alcotest.(check string) "file" "lib/stream/flat_automaton.ml"
        d.Diagnostic.file;
      Alcotest.(check bool) "names the compiler" true
        (contains_sub d.Diagnostic.message "compile")
  | ds -> Alcotest.failf "expected one R9 diagnostic, got %d" (List.length ds)

let test_r9_flat_compile_checkpointed () =
  let src =
    "let compile trie depth =\n\
    \  let states = Array.make 4 0 in\n\
    \  for i = 0 to depth do\n\
    \    Deadline.checkpoint ();\n\
    \    states.(0) <- states.(0) + i + trie\n\
    \  done;\n\
    \  states.(0)\n"
  in
  let diags = run_on [ file "lib/stream/flat_automaton.ml" src ] in
  Alcotest.(check (list string)) "checkpointed compiler clean" []
    (rules_of (find_rule "R9" diags))

(* --- R10: fault custody of raisable constructors ----------------------- *)

let r10_det_ml =
  "let train ~window trace =\n\
  \  ignore window; ignore trace;\n\
  \  (* lint: allow partiality — fixture raise *)\n\
  \  failwith \"seeded\"\n"

let test_r10_unmapped_constructor () =
  let diags =
    run_on
      [
        file "lib/core/fault.ml" "let classify = function _ -> 1\n";
        file "lib/detectors/d.ml" r10_det_ml;
      ]
  in
  match find_rule "R10" diags with
  | [ d ] ->
      Alcotest.(check string) "reported at classify" "lib/core/fault.ml"
        d.Diagnostic.file;
      Alcotest.(check string) "name" "fault-custody" d.Diagnostic.rule_name;
      Alcotest.(check bool) "names the constructor" true
        (contains_sub d.Diagnostic.message "Failure");
      Alcotest.(check bool) "cites the raise site" true
        (contains_sub d.Diagnostic.message "lib/detectors/d.ml")
  | ds -> Alcotest.failf "expected one R10 diagnostic, got %d" (List.length ds)

(* An explicit case for the constructor restores custody. *)
let test_r10_mapped_clean () =
  let diags =
    run_on
      [
        file "lib/core/fault.ml"
          "let classify = function Failure _ -> 0 | _ -> 1\n";
        file "lib/detectors/d.ml" r10_det_ml;
      ]
  in
  Alcotest.(check (list string)) "mapped constructor clean" []
    (rules_of (find_rule "R10" diags))

(* R10 honours the standard whitelist comment. *)
let test_r10_whitelist () =
  let diags =
    run_on
      [
        file "lib/core/fault.ml"
          "(* lint: allow fault-custody — fixture *)\n\
           let classify = function _ -> 1\n";
        file "lib/detectors/d.ml" r10_det_ml;
      ]
  in
  Alcotest.(check (list string)) "suppressed" []
    (rules_of (find_rule "R10" diags))

(* --- R11: allocation on the per-window scoring path -------------------- *)

let r11_bad_ml =
  "let score_range m trace lo hi =\n\
  \  Array.init (hi - lo) (fun i -> (m, Trace.get trace (lo + i)))\n"

let test_r11_alloc_per_window () =
  let diags = run_on [ file "lib/detectors/al.ml" r11_bad_ml ] in
  match find_rule "R11" diags with
  | d :: _ ->
      Alcotest.(check string) "file" "lib/detectors/al.ml" d.Diagnostic.file;
      Alcotest.(check int) "at the tuple" 2 d.Diagnostic.line;
      Alcotest.(check string) "name" "allocation" d.Diagnostic.rule_name
  | [] -> Alcotest.fail "expected an R11 diagnostic"

(* Scalar, loop-free scoring allocates nothing. *)
let test_r11_scalar_clean () =
  let src = "let score_range m trace lo hi = m + lo + hi + Trace.get trace lo\n" in
  let diags = run_on [ file "lib/detectors/al2.ml" src ] in
  Alcotest.(check (list string)) "scalar path clean" []
    (rules_of (find_rule "R11" diags))

(* Allocation at the top of the call, outside any loop, is the
   preallocation idiom R11 exists to encourage. *)
let test_r11_preallocation_clean () =
  let src =
    "let score_range m trace lo hi =\n\
    \  let out = Array.make (hi - lo) 0 in\n\
    \  for i = lo to hi - 1 do\n\
    \    Deadline.checkpoint ();\n\
    \    out.(i - lo) <- m + Trace.get trace i\n\
    \  done;\n\
    \  out\n"
  in
  let diags = run_on [ file "lib/detectors/al3.ml" src ] in
  Alcotest.(check (list string)) "preallocation clean" []
    (rules_of (find_rule "R11" diags))

(* R11 honours the standard whitelist comment. *)
let test_r11_whitelist () =
  let src =
    "let score_range m trace lo hi =\n\
    \  (* lint: allow allocation — fixture *)\n\
    \  Array.init (hi - lo) (fun i -> (m, Trace.get trace (lo + i)))\n"
  in
  let diags = run_on [ file "lib/detectors/al4.ml" src ] in
  Alcotest.(check (list string)) "suppressed" []
    (rules_of (find_rule "R11" diags))

(* Train-time allocation is legitimate: R11 only guards score paths. *)
let test_r11_train_exempt () =
  let src =
    "let train ~window trace =\n\
    \  ignore window;\n\
    \  List.init 4 (fun i -> (i, Trace.get trace i))\n"
  in
  let diags = run_on [ file "lib/detectors/al5.ml" src ] in
  Alcotest.(check (list string)) "no R11 outside score" []
    (rules_of (find_rule "R11" diags))

(* Flat-automaton stepping is a declared score root: an allocating
   [step] called from the compiled scoring loop is a per-window
   allocation like any other. *)
let r11_flat_loop_ml =
  "let compiled_score_range scorer trace lo hi =\n\
  \  let out = Array.make (hi - lo) 0 in\n\
  \  for i = lo to hi - 1 do\n\
  \    Deadline.checkpoint ();\n\
  \    out.(i - lo) <- Flat_automaton.step scorer trace i\n\
  \  done;\n\
  \  out\n"

let test_r11_flat_step_allocating () =
  let step_ml = "let step auto state symbol = fst (auto, (state, symbol))\n" in
  let diags =
    run_on
      [
        file "lib/stream/flat_automaton.ml" step_ml;
        file "lib/detectors/fastpath.ml" r11_flat_loop_ml;
      ]
  in
  match find_rule "R11" diags with
  | d :: _ ->
      Alcotest.(check string) "file" "lib/stream/flat_automaton.ml"
        d.Diagnostic.file;
      Alcotest.(check string) "name" "allocation" d.Diagnostic.rule_name
  | [] -> Alcotest.fail "expected an R11 diagnostic in step"

let test_r11_flat_step_clean () =
  let step_ml = "let step auto state symbol = auto + state + symbol\n" in
  let diags =
    run_on
      [
        file "lib/stream/flat_automaton.ml" step_ml;
        file "lib/detectors/fastpath.ml" r11_flat_loop_ml;
      ]
  in
  Alcotest.(check (list string)) "allocation-free step clean" []
    (rules_of (find_rule "R11" diags))

(* [Online.advance] runs once per stream symbol: it is per-window by
   definition, so an allocation in its own body (no loop needed) or in
   a callee is a finding. *)
let test_r11_advance_allocating () =
  let online_ml =
    "let judge t symbol = ref (t + symbol)\n\
     let advance t symbol = fst (!(judge t symbol), t)\n"
  in
  let diags =
    run_on
      [
        file "lib/core/online.ml" online_ml;
        file "lib/core/online.mli"
          "val judge : int -> int -> int ref\n\
           val advance : int -> int -> int\n";
      ]
  in
  Alcotest.(check (list int)) "the callee's ref and the entry's tuple" [ 1; 2 ]
    (List.map (fun d -> d.Diagnostic.line) (find_rule "R11" diags))

let test_r11_advance_clean () =
  let online_ml =
    "let judge t symbol = t + symbol\n\
     let advance t symbol = judge t symbol land 3\n"
  in
  let diags =
    run_on
      [
        file "lib/core/online.ml" online_ml;
        file "lib/core/online.mli"
          "val judge : int -> int -> int\nval advance : int -> int -> int\n";
      ]
  in
  Alcotest.(check (list string)) "allocation-free advance clean" []
    (rules_of (find_rule "R11" diags))

(* [Online.advance_run] and the kernel it runs,
   [Flat_automaton.run_quiet], step many symbols per call: each is a
   per-symbol entry of its own, so an allocation in its body is a
   finding even with no caller in the program. *)
let test_r11_run_allocating () =
  let diags =
    run_on
      [
        file "lib/core/online.ml"
          "let advance_run t symbols = fst (t, symbols)\n";
        file "lib/core/online.mli" "val advance_run : int -> int -> int\n";
        file "lib/stream/flat_automaton.ml"
          "let run_quiet c symbols = !(ref (c + symbols))\n";
        file "lib/stream/flat_automaton.mli"
          "val run_quiet : int -> int -> int\n";
      ]
  in
  Alcotest.(check (list (pair string int)))
    "each entry's own allocation"
    [ ("lib/core/online.ml", 1); ("lib/stream/flat_automaton.ml", 1) ]
    (List.sort compare
       (List.map
          (fun d -> (d.Diagnostic.file, d.Diagnostic.line))
          (find_rule "R11" diags)))

(* --- R12: hygiene of the allow markers themselves ----------------------- *)

let test_r12_unknown_token () =
  let src = "(* lint: allow nonsense — typo'd rule *)\nlet a = 1\n" in
  let diags = run_on [ file "lib/m.ml" src; file "lib/m.mli" "val a : int\n" ] in
  match find_rule "R12" diags with
  | [ d ] ->
      Alcotest.(check bool) "is error" true (Diagnostic.is_error d);
      Alcotest.(check bool) "names the token" true
        (contains_sub d.Diagnostic.message "nonsense")
  | ds -> Alcotest.failf "expected one R12 diagnostic, got %d" (List.length ds)

let test_r12_empty_marker () =
  let src = "(* lint: allow *)\nlet a = 1\n" in
  let diags = run_on [ file "lib/m2.ml" src; file "lib/m2.mli" "val a : int\n" ] in
  match find_rule "R12" diags with
  | [ d ] ->
      Alcotest.(check bool) "is error" true (Diagnostic.is_error d);
      Alcotest.(check bool) "says no rules" true
        (contains_sub d.Diagnostic.message "names no rules")
  | ds -> Alcotest.failf "expected one R12 diagnostic, got %d" (List.length ds)

(* A bare allow still suppresses, but draws a warning asking for the
   justification clause. *)
let test_r12_bare_allow_warns () =
  let src = "(* lint: allow partiality *)\nlet a () = failwith \"x\"\n" in
  let diags =
    run_on [ file "lib/m3.ml" src; file "lib/m3.mli" "val a : unit -> 'a\n" ]
  in
  Alcotest.(check (list string)) "only the R12 warning" [ "R12" ]
    (rules_of diags);
  Alcotest.(check bool) "is warning" false
    (Diagnostic.is_error (List.hd diags))

let test_r12_justified_clean () =
  let src =
    "(* lint: allow partiality — documented precondition *)\n\
     let a () = failwith \"x\"\n"
  in
  let diags =
    run_on [ file "lib/m4.ml" src; file "lib/m4.mli" "val a : unit -> 'a\n" ]
  in
  Alcotest.(check (list string)) "no diagnostics" [] (rules_of diags)

let () =
  Alcotest.run "lint"
    [
      ( "rules",
        [
          Alcotest.test_case "clean tree" `Quick test_clean_tree;
          Alcotest.test_case "R0 syntax" `Quick test_syntax_error;
          Alcotest.test_case "R1 random" `Quick test_r1_random;
          Alcotest.test_case "R1 qualified + clock" `Quick
            test_r1_qualified_and_clock;
          Alcotest.test_case "R1 hashtbl iter" `Quick test_r1_hashtbl_iter;
          Alcotest.test_case "R1 exempt in bin" `Quick test_r1_not_in_bin;
          Alcotest.test_case "R2 print" `Quick test_r2_print;
          Alcotest.test_case "R3 partiality" `Quick test_r3_partiality;
          Alcotest.test_case "whitelist line below" `Quick
            test_whitelist_suppresses;
          Alcotest.test_case "whitelist same line" `Quick
            test_whitelist_same_line;
          Alcotest.test_case "whitelist wrong rule" `Quick
            test_whitelist_wrong_rule;
          Alcotest.test_case "R4 missing mli" `Quick test_r4_missing_mli;
          Alcotest.test_case "R4 exempts tests" `Quick
            test_r4_not_for_test_role;
          Alcotest.test_case "R5 contract" `Quick test_r5_contract;
          Alcotest.test_case "R5 include" `Quick test_r5_include_detector_s;
          Alcotest.test_case "R6 domain in lib" `Quick test_r6_domain_in_lib;
          Alcotest.test_case "R6 exempts pool" `Quick test_r6_exempts_pool;
          Alcotest.test_case "R6 exempt in bin" `Quick test_r6_not_in_bin;
          Alcotest.test_case "R6 whitelist" `Quick test_r6_whitelist;
          Alcotest.test_case "R6 thread in lib" `Quick test_r6_thread_in_lib;
          Alcotest.test_case "R6 thread in serve" `Quick
            test_r6_thread_in_serve;
          Alcotest.test_case "R7 score path" `Quick test_r7_score_path;
          Alcotest.test_case "R7 train exempt" `Quick test_r7_train_exempt;
          Alcotest.test_case "R7 detectors only" `Quick
            test_r7_only_in_detectors;
          Alcotest.test_case "R7 whitelist" `Quick test_r7_whitelist;
          Alcotest.test_case "R7 hashtbl" `Quick test_r7_hashtbl;
          Alcotest.test_case "R7 cursor clean" `Quick test_r7_cursor_clean;
          Alcotest.test_case "R8 try wildcard" `Quick test_r8_try_wildcard;
          Alcotest.test_case "R8 match exception" `Quick
            test_r8_match_exception;
          Alcotest.test_case "R8 named clean" `Quick
            test_r8_named_exception_clean;
          Alcotest.test_case "R8 exempts fault" `Quick test_r8_exempts_fault;
          Alcotest.test_case "R8 whitelist" `Quick test_r8_whitelist;
          Alcotest.test_case "R8 exempt in bin" `Quick test_r8_not_in_bin;
          Alcotest.test_case "R9 missing checkpoint" `Quick
            test_r9_missing_checkpoint;
          Alcotest.test_case "R9 checkpointed clean" `Quick
            test_r9_checkpointed_clean;
          Alcotest.test_case "R9 guarded by caller" `Quick
            test_r9_guarded_by_caller;
          Alcotest.test_case "R9 whitelist" `Quick test_r9_whitelist;
          Alcotest.test_case "R9 cold loop exempt" `Quick
            test_r9_cold_loop_exempt;
          Alcotest.test_case "R9 flat compile uncheckpointed" `Quick
            test_r9_flat_compile_uncheckpointed;
          Alcotest.test_case "R9 flat compile checkpointed" `Quick
            test_r9_flat_compile_checkpointed;
          Alcotest.test_case "R10 unmapped constructor" `Quick
            test_r10_unmapped_constructor;
          Alcotest.test_case "R10 mapped clean" `Quick test_r10_mapped_clean;
          Alcotest.test_case "R10 whitelist" `Quick test_r10_whitelist;
          Alcotest.test_case "R11 alloc per window" `Quick
            test_r11_alloc_per_window;
          Alcotest.test_case "R11 scalar clean" `Quick test_r11_scalar_clean;
          Alcotest.test_case "R11 preallocation clean" `Quick
            test_r11_preallocation_clean;
          Alcotest.test_case "R11 whitelist" `Quick test_r11_whitelist;
          Alcotest.test_case "R11 train exempt" `Quick test_r11_train_exempt;
          Alcotest.test_case "R11 flat step allocating" `Quick
            test_r11_flat_step_allocating;
          Alcotest.test_case "R11 flat step clean" `Quick
            test_r11_flat_step_clean;
          Alcotest.test_case "R11 advance allocating" `Quick
            test_r11_advance_allocating;
          Alcotest.test_case "R11 advance clean" `Quick test_r11_advance_clean;
          Alcotest.test_case "R11 run allocating" `Quick
            test_r11_run_allocating;
          Alcotest.test_case "R12 unknown token" `Quick test_r12_unknown_token;
          Alcotest.test_case "R12 empty marker" `Quick test_r12_empty_marker;
          Alcotest.test_case "R12 bare allow warns" `Quick
            test_r12_bare_allow_warns;
          Alcotest.test_case "R12 justified clean" `Quick
            test_r12_justified_clean;
          Alcotest.test_case "R13 outside wal" `Quick test_r13_outside_wal;
          Alcotest.test_case "R13 exempts wal" `Quick test_r13_exempts_wal;
          Alcotest.test_case "rendering" `Quick test_diagnostic_rendering;
        ] );
    ]
