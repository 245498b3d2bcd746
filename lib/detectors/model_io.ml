open Seqdiv_stream

(* The text formats carry symbols 0..255. *)
let symbols_to_string ~what symbols =
  Array.iter
    (fun v ->
      if v > 255 then
        (* lint: allow partiality — documented precondition *)
        invalid_arg (Printf.sprintf "%s: symbol %d above 255" what v))
    symbols;
  String.concat "," (List.map string_of_int (Array.to_list symbols))

let symbols_of_string s =
  String.split_on_char ',' s
  |> List.map (fun tok ->
         match int_of_string_opt tok with
         | Some v when v >= 0 && v < 256 -> v
         | Some _ | None -> Parse_error.fail "Model_io: bad symbol %s" tok)
  |> Array.of_list

(* --- versioned line-format headers -------------------------------------- *)

(* Both text formats open with "#seqdiv-<kind> <version> k=v ...": one
   writer/parser pair serves them (and any future line format). *)

let format_version = 1

let header_line ~kind fields =
  Printf.sprintf "#seqdiv-%s %d %s\n" kind format_version
    (String.concat " "
       (List.map (fun (name, v) -> Printf.sprintf "%s=%d" name v) fields))

let parse_header ~what ~kind line =
  match String.split_on_char ' ' (String.trim line) with
  | tag :: version :: pairs ->
      if tag <> "#seqdiv-" ^ kind then
        Parse_error.fail "%s: bad header" what;
      if version <> string_of_int format_version then
        Parse_error.fail "%s: unsupported format version %s" what version;
      List.map
        (fun pair ->
          match String.index_opt pair '=' with
          | None -> Parse_error.fail "%s: bad header" what
          | Some i -> (
              let name = String.sub pair 0 i in
              let value = String.sub pair (i + 1) (String.length pair - i - 1) in
              match int_of_string_opt value with
              | Some v -> (name, v)
              | None -> Parse_error.fail "%s: bad header" what))
        pairs
  | _ -> Parse_error.fail "%s: bad header" what

let header_field ~what fields name =
  match List.assoc_opt name fields with
  | Some v -> v
  | None -> Parse_error.fail "%s: bad header" what

(* A window or alphabet size, which the loaders size tables by.  Every
   stored window, context and counts row spells that many symbols or
   counts out on a line, so a value above the input's byte length is
   refused before anything is allocated. *)
let size_field ~what ~input fields name =
  let v = header_field ~what fields name in
  if v > String.length input then
    Parse_error.fail "%s: %s=%d exceeds the input's %d bytes" what name v
      (String.length input);
  v

let save_stide model =
  let window = Stide.window model in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (header_line ~kind:"stide" [ ("window", window) ]);
  Seq_trie.iter_slice (Stide.trie model) ~depth:window (fun w count ->
      Buffer.add_string buf
        (Printf.sprintf "%d %s\n" count
           (symbols_to_string ~what:"Model_io.save_stide" w)));
  Buffer.contents buf

let nonempty_lines s =
  String.split_on_char '\n' s |> List.filter (fun l -> l <> "")

let load_stide s =
  match nonempty_lines s with
  | [] -> Parse_error.fail "Model_io.load_stide: empty input"
  | header :: rest ->
      let what = "Model_io.load_stide" in
      let fields = parse_header ~what ~kind:"stide" header in
      let window = size_field ~what ~input:s fields "window" in
      if window < 2 then Parse_error.fail "Model_io.load_stide: bad window";
      (* Every symbol the format can carry. *)
      let trie = Seq_trie.create ~alphabet_size:256 ~max_len:window in
      List.iter
        (fun line ->
          match String.index_opt line ' ' with
          | None ->
              Parse_error.fail "Model_io.load_stide: malformed line: %s" line
          | Some i ->
              let count =
                match int_of_string_opt (String.sub line 0 i) with
                | Some c when c > 0 -> c
                | Some _ | None ->
                    Parse_error.fail "Model_io.load_stide: bad count in: %s"
                      line
              in
              let symbols =
                symbols_of_string
                  (String.sub line (i + 1) (String.length line - i - 1))
              in
              if Array.length symbols <> window then
                Parse_error.fail "Model_io.load_stide: wrong arity in: %s" line;
              Seq_trie.add_many_at trie symbols ~pos:0 ~len:window ~count)
        rest;
      Stide.of_trie trie ~window

let save_markov model =
  let buf = Buffer.create 1024 in
  let window = Markov.window model in
  (* Recover the alphabet size from any counts row; fold once. *)
  let k =
    Markov.fold_contexts model ~init:0 ~f:(fun acc ~context:_ ~counts ->
        Stdlib.max acc (Array.length counts))
  in
  Buffer.add_string buf
    (header_line ~kind:"markov" [ ("window", window); ("alphabet", k) ]);
  let lines =
    Markov.fold_contexts model ~init:[] ~f:(fun acc ~context ~counts ->
        Printf.sprintf "%s | %s"
          (symbols_to_string ~what:"Model_io.save_markov" context)
          (String.concat "," (List.map string_of_int (Array.to_list counts)))
        :: acc)
  in
  List.iter
    (fun line ->
      Buffer.add_string buf line;
      Buffer.add_char buf '\n')
    (List.sort compare lines);
  Buffer.contents buf

let load_markov s =
  match nonempty_lines s with
  | [] -> Parse_error.fail "Model_io.load_markov: empty input"
  | header :: rest ->
      let what = "Model_io.load_markov" in
      let fields = parse_header ~what ~kind:"markov" header in
      let window = size_field ~what ~input:s fields "window" in
      let k = size_field ~what ~input:s fields "alphabet" in
      if window < 2 || k < 1 then
        Parse_error.fail "Model_io.load_markov: bad header";
      let entries =
        List.map
          (fun line ->
            match String.index_opt line '|' with
            | None ->
                Parse_error.fail "Model_io.load_markov: malformed line: %s"
                  line
            | Some i ->
                let context_part = String.trim (String.sub line 0 i) in
                let counts_part =
                  String.trim
                    (String.sub line (i + 1) (String.length line - i - 1))
                in
                let context = symbols_of_string context_part in
                let counts =
                  String.split_on_char ',' counts_part
                  |> List.map (fun tok ->
                         match int_of_string_opt tok with
                         | Some c when c >= 0 -> c
                         | Some _ | None ->
                             Parse_error.fail
                               "Model_io.load_markov: bad count %s" tok)
                  |> Array.of_list
                in
                (context, counts))
          rest
      in
      (try Markov.of_context_counts ~window ~alphabet_size:k entries
       with Invalid_argument msg ->
         Parse_error.fail "Model_io.load_markov: %s" msg)

let write_file path contents =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)

let read_file ~what path =
  match open_in path with
  | exception Sys_error msg ->
      (* A missing or unreadable model file is a parse failure with the
         path attached, not a bare [Sys_error] — callers handle one
         exception for every way a load can go wrong. *)
      Parse_error.fail "%s: cannot read %s: %s" what path msg
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))

let save_stide_file path model = write_file path (save_stide model)

let load_stide_file path =
  load_stide (read_file ~what:"Model_io.load_stide_file" path)

let save_markov_file path model = write_file path (save_markov model)

let load_markov_file path =
  load_markov (read_file ~what:"Model_io.load_markov_file" path)

(* --- binary flat-automaton format ---------------------------------------- *)

(* Layout (version 1, native endianness, 64-bit words):

     bytes   0..7    magic "sqdvflat"
     bytes   8..15   format version (1)
     bytes  16..23   sanity tag 0x0123456789abcdef — catches an
                     endianness or word-size mismatch in one compare
     bytes  24..31   detector name, NUL-padded to 8 bytes
     bytes  32..39   window (= automaton depth)
     bytes  40..47   alphabet size
     bytes  48..55   state count
     bytes  56..63   alarm threshold (IEEE-754 bits)
     then, 8 bytes per entry, back to back:
       transitions   states x alphabet ints
       depths        states ints
       counts        states ints
       context tot.  states ints
       parents       states ints
       scores        states float64s

   Every section is a straight dump of the in-memory Bigarray, 8-byte
   aligned, so loading is [Unix.map_file] per section: no parsing, no
   copying, no per-entry allocation.  The one full read [of_tables]
   performs is validation, which is what keeps the stepper's unchecked
   table reads safe on untrusted files. *)

let flat_magic = "sqdvflat"
let flat_version = 1
let flat_sanity = 0x0123456789abcdefL
let flat_header_bytes = 64

type flat = {
  flat_detector : string;
  flat_window : int;
  flat_alarm_threshold : float;
  flat_scorer : Flat_automaton.scorer;
}

let save_flat_file path ~detector ~alarm_threshold scorer =
  if String.length detector = 0 || String.length detector > 8 then
    (* lint: allow partiality — documented precondition *)
    invalid_arg "Model_io.save_flat_file: detector name must be 1..8 bytes";
  let auto = Flat_automaton.automaton scorer in
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let w64 =
        let b = Bytes.create 8 in
        fun v ->
          Bytes.set_int64_ne b 0 v;
          output_bytes oc b
      in
      let wint v = w64 (Int64.of_int v) in
      let states = Flat_automaton.states auto in
      output_string oc flat_magic;
      wint flat_version;
      w64 flat_sanity;
      let name = Bytes.make 8 '\000' in
      Bytes.blit_string detector 0 name 0 (String.length detector);
      output_bytes oc name;
      wint (Flat_automaton.depth auto);
      wint (Flat_automaton.alphabet_size auto);
      wint states;
      w64 (Int64.bits_of_float alarm_threshold);
      let dump_int (table : Flat_automaton.table) =
        for i = 0 to Bigarray.Array1.dim table - 1 do
          wint (Bigarray.Array1.get table i)
        done
      in
      dump_int (Flat_automaton.transitions auto);
      dump_int (Flat_automaton.depths auto);
      dump_int (Flat_automaton.counts auto);
      dump_int (Flat_automaton.context_totals auto);
      dump_int (Flat_automaton.parents auto);
      let scores = Flat_automaton.score_table scorer in
      for i = 0 to Bigarray.Array1.dim scores - 1 do
        w64 (Int64.bits_of_float (Bigarray.Array1.get scores i))
      done)

let trim_nul s =
  match String.index_opt s '\000' with
  | None -> s
  | Some i -> String.sub s 0 i

let load_flat_file path =
  let what = "Model_io.load_flat_file" in
  if Sys.word_size <> 64 then
    Parse_error.fail "%s: requires a 64-bit platform" what;
  let fd =
    match Unix.openfile path [ Unix.O_RDONLY ] 0 with
    | fd -> fd
    | exception Unix.Unix_error (err, _, _) ->
        Parse_error.fail "%s: cannot read %s: %s" what path
          (Unix.error_message err)
  in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let size = (Unix.fstat fd).Unix.st_size in
      if size < flat_header_bytes then
        Parse_error.fail "%s: %s: truncated header" what path;
      let header = Bytes.create flat_header_bytes in
      let got = Unix.read fd header 0 flat_header_bytes in
      if got <> flat_header_bytes then
        Parse_error.fail "%s: %s: truncated header" what path;
      let r64 off = Bytes.get_int64_ne header off in
      let rint off = Int64.to_int (r64 off) in
      if Bytes.sub_string header 0 8 <> flat_magic then
        Parse_error.fail "%s: %s: not a flat model file" what path;
      if rint 8 <> flat_version then
        Parse_error.fail "%s: %s: unsupported format version %d" what path
          (rint 8);
      if not (Int64.equal (r64 16) flat_sanity) then
        Parse_error.fail "%s: %s: endianness/word-size mismatch" what path;
      let detector = trim_nul (Bytes.sub_string header 24 8) in
      let window = rint 32 in
      let alphabet_size = rint 40 in
      let states = rint 48 in
      let alarm_threshold = Int64.float_of_bits (r64 56) in
      if window < 1 || alphabet_size < 1 || states < 1 then
        Parse_error.fail "%s: %s: bad dimensions" what path;
      let expect =
        flat_header_bytes + (8 * states * (alphabet_size + 5))
      in
      if size <> expect then
        Parse_error.fail "%s: %s: file size %d, expected %d" what path size
          expect;
      (* Zero-copy load: each section maps straight out of the file. *)
      let pos = ref flat_header_bytes in
      let map kind len =
        let a =
          Bigarray.array1_of_genarray
            (Unix.map_file fd ~pos:(Int64.of_int !pos) kind Bigarray.c_layout
               false [| len |])
        in
        pos := !pos + (8 * len);
        a
      in
      let transitions = map Bigarray.int (states * alphabet_size) in
      let depths = map Bigarray.int states in
      let counts = map Bigarray.int states in
      let context_totals = map Bigarray.int states in
      let parents = map Bigarray.int states in
      let scores = map Bigarray.float64 states in
      match
        let auto =
          Flat_automaton.of_tables ~alphabet_size ~depth:window ~transitions
            ~depths ~counts ~context_totals ~parents
        in
        Flat_automaton.scorer_of_tables auto scores
      with
      | scorer ->
          {
            flat_detector = detector;
            flat_window = window;
            flat_alarm_threshold = alarm_threshold;
            flat_scorer = scorer;
          }
      | exception Invalid_argument msg ->
          Parse_error.fail "%s: %s: %s" what path msg)

