open Seqdiv_core
open Seqdiv_report

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

(* --- Table ------------------------------------------------------------- *)

let test_table_alignment () =
  let t = Table.make ~columns:[ "a"; "long header" ] in
  Table.add_row t [ "x"; "y" ];
  Table.add_row t [ "wide cell"; "z" ];
  let s = Table.to_string t in
  let lines = String.split_on_char '\n' s in
  (match lines with
  | header :: rule :: _ ->
      Alcotest.(check bool) "header present" true (contains header "long header");
      Alcotest.(check bool) "rule dashes" true (contains rule "---")
  | _ -> Alcotest.fail "expected lines");
  Alcotest.(check bool) "rows present" true (contains s "wide cell")

let test_table_arity_checked () =
  let t = Table.make ~columns:[ "a"; "b" ] in
  Alcotest.check_raises "arity" (Invalid_argument "Table.add_row: wrong arity")
    (fun () -> Table.add_row t [ "only one" ])

let test_table_empty_columns_rejected () =
  Alcotest.check_raises "no columns" (Invalid_argument "Table.make: no columns")
    (fun () -> ignore (Table.make ~columns:[]))

let test_table_no_trailing_spaces () =
  let t = Table.make ~columns:[ "col"; "x" ] in
  Table.add_row t [ "a"; "b" ];
  String.split_on_char '\n' (Table.to_string t)
  |> List.iter (fun line ->
         if line <> "" && line.[String.length line - 1] = ' ' then
           Alcotest.fail "trailing whitespace")

(* --- Csv --------------------------------------------------------------- *)

let test_csv_escape () =
  Alcotest.(check string) "plain" "abc" (Csv.escape "abc");
  Alcotest.(check string) "comma" "\"a,b\"" (Csv.escape "a,b");
  Alcotest.(check string) "quote" "\"a\"\"b\"" (Csv.escape "a\"b");
  Alcotest.(check string) "newline" "\"a\nb\"" (Csv.escape "a\nb")

let test_csv_row () =
  Alcotest.(check string) "row" "a,\"b,c\",d" (Csv.row [ "a"; "b,c"; "d" ])

let test_csv_of_rows () =
  let s = Csv.of_rows ~header:[ "h1"; "h2" ] [ [ "1"; "2" ] ] in
  Alcotest.(check string) "document" "h1,h2\n1,2\n" s

let diagonal_map () =
  Performance_map.build ~detector:"synthetic" ~anomaly_sizes:[ 2; 3 ]
    ~windows:[ 2; 3 ] ~f:(fun ~anomaly_size ~window ->
      if window >= anomaly_size then Outcome.Capable 1.0 else Outcome.Blind)

let test_csv_map_rows () =
  let rows = Csv.map_rows (diagonal_map ()) in
  Alcotest.(check int) "one row per cell" 4 (List.length rows);
  match rows with
  | first :: _ ->
      Alcotest.(check (list string)) "row shape"
        [ "synthetic"; "2"; "2"; "capable"; "1.000000" ]
        first
  | [] -> Alcotest.fail "no rows"

(* --- Ascii_map ---------------------------------------------------------- *)

let test_ascii_map_compact () =
  let s = Ascii_map.render_compact (diagonal_map ()) in
  (* windows descending: DW=3 row then DW=2 row *)
  Alcotest.(check string) "glyph grid" "**\n*." s

let test_ascii_map_render () =
  let s = Ascii_map.render (diagonal_map ()) in
  Alcotest.(check bool) "names detector" true (contains s "synthetic");
  Alcotest.(check bool) "undefined column" true (contains s "?");
  Alcotest.(check bool) "legend" true (contains s "legend")

(* --- Paper -------------------------------------------------------------- *)

let test_figure2_structure () =
  let suite = Seqdiv_test_support.tiny_suite () in
  let s = Paper.figure2 suite ~window:5 ~anomaly_size:8 in
  Alcotest.(check bool) "names the parameters" true (contains s "DW=5, AS=8");
  Alcotest.(check bool) "incident span size" true (contains s "12 windows");
  Alcotest.(check bool) "boundary count" true (contains s "2(DW-1) = 8");
  (* exactly AS many F marks *)
  let f_count =
    String.fold_left (fun acc c -> if c = 'F' then acc + 1 else acc) 0 s
    (* the legend line contains one extra F in "F: injected..." and
       "foreign"; count only the marker row by re-deriving *)
  in
  Alcotest.(check bool) "F markers present" true (f_count >= 8)

let test_figure7_values () =
  let s = Paper.figure7 () in
  Alcotest.(check bool) "max 15" true (contains s "score = 15");
  Alcotest.(check bool) "mismatch 10" true (contains s "score = 10")

let test_table1_subset_claim () =
  (* Two synthetic maps where left ⊂ right: table must state it. *)
  let small =
    Performance_map.build ~detector:"small" ~anomaly_sizes:[ 2; 3 ]
      ~windows:[ 2; 3 ] ~f:(fun ~anomaly_size ~window ->
        if window >= anomaly_size then Outcome.Capable 1.0 else Outcome.Blind)
  in
  let big =
    Performance_map.build ~detector:"big" ~anomaly_sizes:[ 2; 3 ]
      ~windows:[ 2; 3 ] ~f:(fun ~anomaly_size:_ ~window:_ -> Outcome.Capable 1.0)
  in
  let s = Paper.table1 [ small; big ] in
  Alcotest.(check bool) "subset stated" true
    (contains s "small subset of big")

let test_extension2_verdicts () =
  let full =
    Performance_map.build ~detector:"markov" ~anomaly_sizes:[ 2; 3 ]
      ~windows:[ 2; 3 ] ~f:(fun ~anomaly_size:_ ~window:_ -> Outcome.Capable 1.0)
  in
  let blind =
    Performance_map.build ~detector:"stide" ~anomaly_sizes:[ 2; 3 ]
      ~windows:[ 2; 3 ] ~f:(fun ~anomaly_size:_ ~window:_ -> Outcome.Blind)
  in
  let s = Paper.extension2 [ full; blind ] in
  Alcotest.(check bool) "rare-sensitive verdict" true
    (contains s "rare-sensitive");
  Alcotest.(check bool) "blind verdict" true (contains s "blind to rarity")

let test_extension3_rows () =
  let s =
    Paper.extension3
      [
        {
          Ablation.seed = 42;
          stide_diagonal = true;
          markov_everywhere = true;
          lnb_nowhere = false;
        };
      ]
  in
  Alcotest.(check bool) "seed shown" true (contains s "42");
  Alcotest.(check bool) "no shown" true (contains s "no")

let test_extension4_rates () =
  let s =
    Paper.extension4
      [
        ( "stide",
          {
            Session_eval.true_positives = 10;
            false_negatives = 0;
            false_positives = 1;
            true_negatives = 9;
          } );
      ]
  in
  Alcotest.(check bool) "detection rate" true (contains s "1.00");
  Alcotest.(check bool) "fa rate" true (contains s "0.10")

(* The rare-threshold sweep's six thresholds render as six distinct
   strings: two of them differ only past the fourth decimal place. *)
let test_ablation4_thresholds_distinct () =
  let s =
    Paper.ablation4
      (List.map
         (fun threshold ->
           {
             Ablation.threshold;
             rare_twograms = 0;
             common_twograms = 0;
             mfs_candidates = 0;
           })
         [ 0.00005; 0.0001; 0.0005; 0.005; 0.05; 0.2 ])
  in
  let thresholds =
    match String.split_on_char '\n' s with
    | _title :: _header :: _rule :: rows ->
        List.filter_map
          (fun row ->
            match String.split_on_char ' ' row with
            | first :: _ when first <> "" -> Some first
            | _ -> None)
          rows
    | _ -> []
  in
  Alcotest.(check int) "six rows" 6 (List.length thresholds);
  Alcotest.(check int)
    "six distinct thresholds" 6
    (List.length (List.sort_uniq String.compare thresholds))

let test_ablation6_rows () =
  let s =
    Paper.ablation6
      [ { Ablation.window = 6; coverage = 0.625; false_alarm_rate = 0.001 } ]
  in
  Alcotest.(check bool) "coverage percent" true (contains s "62%");
  Alcotest.(check bool) "fa" true (contains s "0.00100")

let test_ablation7_rows () =
  let s =
    Paper.ablation7
      [
        {
          Ablation.deviation = 0.0025;
          sizes_constructible = 8;
          suite_builds = true;
          stide_diagonal_held = true;
        };
        {
          Ablation.deviation = 0.2;
          sizes_constructible = 6;
          suite_builds = false;
          stide_diagonal_held = false;
        };
      ]
  in
  Alcotest.(check bool) "builds" true (contains s "yes");
  Alcotest.(check bool) "dash when not built" true (contains s "-")

let test_ablation8_rows () =
  let s =
    Paper.ablation8
      [
        {
          Ablation.alpha = 1000.0;
          capable = 0;
          weak = 8;
          max_span_response = 0.935;
        };
      ]
  in
  Alcotest.(check bool) "alpha" true (contains s "1000");
  Alcotest.(check bool) "max response" true (contains s "0.93500")

let () =
  Alcotest.run "report"
    [
      ( "table",
        [
          Alcotest.test_case "alignment" `Quick test_table_alignment;
          Alcotest.test_case "arity" `Quick test_table_arity_checked;
          Alcotest.test_case "empty columns" `Quick test_table_empty_columns_rejected;
          Alcotest.test_case "no trailing spaces" `Quick test_table_no_trailing_spaces;
        ] );
      ( "csv",
        [
          Alcotest.test_case "escape" `Quick test_csv_escape;
          Alcotest.test_case "row" `Quick test_csv_row;
          Alcotest.test_case "of_rows" `Quick test_csv_of_rows;
          Alcotest.test_case "map rows" `Quick test_csv_map_rows;
        ] );
      ( "ascii_map",
        [
          Alcotest.test_case "compact" `Quick test_ascii_map_compact;
          Alcotest.test_case "render" `Quick test_ascii_map_render;
        ] );
      ( "paper",
        [
          Alcotest.test_case "figure 2 structure" `Quick test_figure2_structure;
          Alcotest.test_case "figure 7 values" `Quick test_figure7_values;
          Alcotest.test_case "table1 subset claim" `Quick test_table1_subset_claim;
          Alcotest.test_case "extension2 verdicts" `Quick test_extension2_verdicts;
          Alcotest.test_case "extension3 rows" `Quick test_extension3_rows;
          Alcotest.test_case "extension4 rates" `Quick test_extension4_rates;
          Alcotest.test_case "ablation4 thresholds distinct" `Quick
            test_ablation4_thresholds_distinct;
          Alcotest.test_case "ablation6 rows" `Quick test_ablation6_rows;
          Alcotest.test_case "ablation7 rows" `Quick test_ablation7_rows;
          Alcotest.test_case "ablation8 rows" `Quick test_ablation8_rows;
        ] );
    ]
