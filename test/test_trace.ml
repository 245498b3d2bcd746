open Seqdiv_stream
open Seqdiv_test_support

let test_of_array_validates () =
  Alcotest.check_raises "symbol out of range"
    (Invalid_argument "Trace.of_array: symbol 9 out of range") (fun () ->
      ignore (trace8 [ 0; 9 ]))

let test_of_array_copies () =
  let src = [| 0; 1; 2 |] in
  let t = Trace.of_array alphabet8 src in
  src.(0) <- 7;
  Alcotest.(check int) "copied" 0 (Trace.get t 0)

let test_length_get () =
  let t = trace8 [ 3; 1; 4; 1; 5 ] in
  Alcotest.(check int) "length" 5 (Trace.length t);
  Alcotest.(check int) "get" 4 (Trace.get t 2)

let test_sub () =
  let t = trace8 [ 0; 1; 2; 3; 4 ] in
  let s = Trace.sub t ~pos:1 ~len:3 in
  Alcotest.(check (array int)) "sub" [| 1; 2; 3 |] (Trace.to_array s)

let test_concat () =
  let a = trace8 [ 0; 1 ] and b = trace8 [ 2; 3 ] in
  Alcotest.(check (array int)) "concat" [| 0; 1; 2; 3 |]
    (Trace.to_array (Trace.concat a b))

let test_insert_middle () =
  let base = trace8 [ 0; 1; 2; 3 ] and piece = trace8 [ 7; 7 ] in
  Alcotest.(check (array int)) "insert" [| 0; 1; 7; 7; 2; 3 |]
    (Trace.to_array (Trace.insert base ~pos:2 piece))

let test_insert_ends () =
  let base = trace8 [ 1; 2 ] and piece = trace8 [ 5 ] in
  Alcotest.(check (array int)) "prepend" [| 5; 1; 2 |]
    (Trace.to_array (Trace.insert base ~pos:0 piece));
  Alcotest.(check (array int)) "append" [| 1; 2; 5 |]
    (Trace.to_array (Trace.insert base ~pos:2 piece))

let test_equal () =
  Alcotest.(check bool) "equal" true
    (Trace.equal (trace8 [ 1; 2 ]) (trace8 [ 1; 2 ]));
  Alcotest.(check bool) "unequal" false
    (Trace.equal (trace8 [ 1; 2 ]) (trace8 [ 2; 1 ]))

let test_iter_windows () =
  let t = trace8 [ 0; 1; 2; 3; 4 ] in
  let starts = ref [] in
  Trace.iter_windows t ~width:3 (fun s -> starts := s :: !starts);
  Alcotest.(check (list int)) "starts" [ 0; 1; 2 ] (List.rev !starts)

let test_iter_windows_short_trace () =
  let t = trace8 [ 0; 1 ] in
  let count = ref 0 in
  Trace.iter_windows t ~width:5 (fun _ -> incr count);
  Alcotest.(check int) "no windows" 0 !count

let test_window_count () =
  let t = trace8 [ 0; 1; 2; 3 ] in
  Alcotest.(check int) "count" 3 (Trace.window_count t ~width:2);
  Alcotest.(check int) "oversized" 0 (Trace.window_count t ~width:9)

let test_pp_elides () =
  let t = Trace.of_array alphabet8 (Array.make 100 0) in
  let s = Format.asprintf "%a" Trace.pp t in
  Alcotest.(check bool) "mentions total" true
    (String.length s < 400
    &&
    let re = "(100 total)" in
    let rec contains i =
      i + String.length re <= String.length s
      && (String.sub s i (String.length re) = re || contains (i + 1))
    in
    contains 0)

let symbols_gen = QCheck.(list_of_size Gen.(1 -- 30) (int_bound 7))

let prop_insert_length =
  qcheck "insert adds lengths" QCheck.(pair symbols_gen symbols_gen)
    (fun (base, piece) ->
      let b = trace8 base and p = trace8 piece in
      let pos = List.length base / 2 in
      Trace.length (Trace.insert b ~pos p)
      = List.length base + List.length piece)

let () =
  Alcotest.run "trace"
    [
      ( "trace",
        [
          Alcotest.test_case "validation" `Quick test_of_array_validates;
          Alcotest.test_case "copies input" `Quick test_of_array_copies;
          Alcotest.test_case "length/get" `Quick test_length_get;
          Alcotest.test_case "sub" `Quick test_sub;
          Alcotest.test_case "concat" `Quick test_concat;
          Alcotest.test_case "insert middle" `Quick test_insert_middle;
          Alcotest.test_case "insert ends" `Quick test_insert_ends;
          Alcotest.test_case "equal" `Quick test_equal;
          Alcotest.test_case "iter_windows" `Quick test_iter_windows;
          Alcotest.test_case "iter_windows short" `Quick test_iter_windows_short_trace;
          Alcotest.test_case "window_count" `Quick test_window_count;
          Alcotest.test_case "pp elides" `Quick test_pp_elides;
          prop_insert_length;
        ] );
    ]
