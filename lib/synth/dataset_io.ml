open Seqdiv_stream

let manifest_file = "manifest.txt"

let stream_file ~anomaly_size ~window =
  Printf.sprintf "stream_as%d_dw%d.trace" anomaly_size window

let params_lines (p : Suite.params) =
  [
    Printf.sprintf "alphabet_size=%d" p.Suite.alphabet_size;
    Printf.sprintf "train_len=%d" p.Suite.train_len;
    Printf.sprintf "background_len=%d" p.Suite.background_len;
    Printf.sprintf "as_min=%d" p.Suite.as_min;
    Printf.sprintf "as_max=%d" p.Suite.as_max;
    Printf.sprintf "dw_min=%d" p.Suite.dw_min;
    Printf.sprintf "dw_max=%d" p.Suite.dw_max;
    Printf.sprintf "deviation=%.17g" p.Suite.deviation;
    Printf.sprintf "rare_threshold=%.17g" p.Suite.rare_threshold;
    Printf.sprintf "seed=%d" p.Suite.seed;
  ]

let save suite ~dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Trace_io.to_file (Filename.concat dir "training.trace") suite.Suite.training;
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "#seqdiv-suite 1\n";
  List.iter
    (fun line ->
      Buffer.add_string buf line;
      Buffer.add_char buf '\n')
    (params_lines suite.Suite.params);
  Array.iter
    (fun (s : Suite.test_stream) ->
      let inj = s.Suite.injection in
      let file =
        stream_file ~anomaly_size:s.Suite.anomaly_size ~window:s.Suite.window
      in
      Trace_io.to_file (Filename.concat dir file) inj.Injector.trace;
      Buffer.add_string buf
        (Printf.sprintf "stream as=%d dw=%d position=%d anomaly=%s file=%s\n"
           s.Suite.anomaly_size s.Suite.window inj.Injector.position
           (String.concat ","
              (List.map string_of_int (Array.to_list inj.Injector.anomaly)))
           file))
    suite.Suite.streams;
  let oc = open_out (Filename.concat dir manifest_file) in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Buffer.contents buf))

let parse_kv line =
  match String.index_opt line '=' with
  | None -> Parse_error.fail "Dataset_io.load: malformed line: %s" line
  | Some i ->
      (String.sub line 0 i, String.sub line (i + 1) (String.length line - i - 1))

let parse_params lines =
  let table = Hashtbl.create 16 in
  List.iter
    (fun line ->
      let k, v = parse_kv line in
      Hashtbl.replace table k v)
    lines;
  let get k =
    match Hashtbl.find_opt table k with
    | Some v -> v
    | None -> Parse_error.fail "Dataset_io.load: missing parameter %s" k
  in
  let geti k = int_of_string (get k) in
  let getf k = float_of_string (get k) in
  {
    Suite.alphabet_size = geti "alphabet_size";
    train_len = geti "train_len";
    background_len = geti "background_len";
    as_min = geti "as_min";
    as_max = geti "as_max";
    dw_min = geti "dw_min";
    dw_max = geti "dw_max";
    deviation = getf "deviation";
    rare_threshold = getf "rare_threshold";
    seed = geti "seed";
  }

let parse_stream_line dir line =
  (* stream as=2 dw=3 position=992 anomaly=0,0 file=... *)
  let fields =
    String.split_on_char ' ' line |> List.filter (fun s -> s <> "")
  in
  match fields with
  | "stream" :: kvs ->
      let table = Hashtbl.create 8 in
      List.iter
        (fun kv ->
          let k, v = parse_kv kv in
          Hashtbl.replace table k v)
        kvs;
      let get k =
        match Hashtbl.find_opt table k with
        | Some v -> v
        | None -> Parse_error.fail "Dataset_io.load: stream line missing %s" k
      in
      let anomaly =
        String.split_on_char ',' (get "anomaly")
        |> List.map int_of_string |> Array.of_list
      in
      let trace = Trace_io.of_file (Filename.concat dir (get "file")) in
      let position = int_of_string (get "position") in
      let size = Array.length anomaly in
      if
        position < 0
        || position + size > Trace.length trace
        || Trace.to_array (Trace.sub trace ~pos:position ~len:size) <> anomaly
      then
        Parse_error.fail
          "Dataset_io.load: stream %s disagrees with its ground truth"
          (get "file");
      {
        Suite.anomaly_size = size;
        window = int_of_string (get "dw");
        injection = { Injector.trace; position; anomaly };
      }
  | _ -> Parse_error.fail "Dataset_io.load: malformed stream line: %s" line

let load ~dir =
  let manifest = Filename.concat dir manifest_file in
  if not (Sys.file_exists manifest) then
    Parse_error.fail "Dataset_io.load: no manifest at %s" manifest;
  let ic = open_in manifest in
  let contents =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let lines =
    String.split_on_char '\n' contents |> List.filter (fun l -> l <> "")
  in
  match lines with
  | header :: rest when header = "#seqdiv-suite 1" ->
      let param_lines, stream_lines =
        List.partition
          (fun l -> not (String.length l >= 7 && String.sub l 0 7 = "stream "))
          rest
      in
      let params = parse_params param_lines in
      let alphabet = Alphabet.make params.Suite.alphabet_size in
      let chain =
        Markov_chain.paper_chain alphabet ~deviation:params.Suite.deviation
      in
      let training = Trace_io.of_file (Filename.concat dir "training.trace") in
      if Trace.length training <> params.Suite.train_len then
        Parse_error.fail
          "Dataset_io.load: training length disagrees with manifest";
      let max_len =
        Stdlib.max params.Suite.dw_max (params.Suite.as_max + 1)
      in
      let index = Seq_trie.of_trace ~max_len training in
      let streams =
        List.map (parse_stream_line dir) stream_lines |> Array.of_list
      in
      let n_as = params.Suite.as_max - params.Suite.as_min + 1 in
      let n_dw = params.Suite.dw_max - params.Suite.dw_min + 1 in
      if Array.length streams <> n_as * n_dw then
        Parse_error.fail
          "Dataset_io.load: stream count disagrees with manifest";
      (* Restore row-major cell order regardless of manifest order. *)
      let ordered =
        Array.map
          (fun cell ->
            let anomaly_size = params.Suite.as_min + (cell / n_dw) in
            let window = params.Suite.dw_min + (cell mod n_dw) in
            match
              Array.find_opt
                (fun (s : Suite.test_stream) ->
                  s.Suite.anomaly_size = anomaly_size && s.Suite.window = window)
                streams
            with
            | Some s -> s
            | None ->
                Parse_error.fail "Dataset_io.load: missing stream AS=%d DW=%d"
                  anomaly_size window)
          (Array.init (n_as * n_dw) (fun i -> i))
      in
      { Suite.params; alphabet; chain; training; index; streams = ordered }
  | _ -> Parse_error.fail "Dataset_io.load: bad manifest header"
