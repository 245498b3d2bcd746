(* Torn writes against both journal formats.  A small seeded journal of
   each kind is damaged at every truncation offset and by every
   single-bit flip, then resumed:

   - a truncated file resumes to the state after the last unit (cell
     line, or commit group) that lies whole inside the prefix — its
     final newline may be missing;
   - a flipped file resumes to the state after some prefix of the
     units, no shorter than the units before the damaged byte, or
     raises the journal's Corrupt when the flip hit the header or the
     context line.

   Any other exception fails the test. *)

open Seqdiv_util
open Seqdiv_stream
open Seqdiv_core

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let with_path f =
  let path = Filename.temp_file "seqdiv-torn-write" ".journal" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

type subject = {
  file : string;  (** the journal's bytes *)
  unit_ends : int list;
      (** offset of the newline that ends each unit, ascending *)
  states : string list array;  (** [states.(u)]: the state after [u] units *)
  load : string -> string list option;
      (** resume from a path; [None] on the journal's Corrupt *)
}

(* Offsets of the newlines in [s], ascending. *)
let newlines s =
  List.filter (fun i -> s.[i] = '\n') (List.init (String.length s) Fun.id)

(* The header and context lines end at the second newline. *)
let context_end s =
  match newlines s with _ :: e :: _ -> e | _ -> Alcotest.fail "no context line"

let count p l = List.length (List.filter p l)

let check_truncations s path =
  let ctx_end = context_end s.file in
  for n = 0 to String.length s.file do
    write_file path (String.sub s.file 0 n);
    let expected =
      if n < ctx_end then None
      else Some s.states.(count (fun e -> e <= n) s.unit_ends)
    in
    Alcotest.(check (option (list string)))
      (Printf.sprintf "truncated to %d bytes" n)
      expected (s.load path)
  done;
  String.length s.file + 1

let check_flips s path =
  let ctx_end = context_end s.file in
  let units = List.length s.unit_ends in
  String.iteri
    (fun i c ->
      for bit = 0 to 7 do
        let b = Bytes.of_string s.file in
        Bytes.set b i (Char.chr (Char.code c lxor (1 lsl bit)));
        write_file path (Bytes.to_string b);
        match s.load path with
        | None ->
            if i > ctx_end then
              Alcotest.failf "byte %d bit %d: Corrupt past the context line" i
                bit
        | Some state ->
            if i <= ctx_end then
              Alcotest.failf "byte %d bit %d: damaged header or context accepted"
                i bit;
            let whole = count (fun e -> e < i) s.unit_ends in
            if
              not
                (List.exists
                   (fun u -> s.states.(u) = state)
                   (List.init (units - whole + 1) (fun k -> whole + k)))
            then
              Alcotest.failf "byte %d bit %d: state is no prefix of %d+ units"
                i bit whole
      done)
    s.file;
  8 * String.length s.file

let run_property make () =
  with_path (fun path ->
      let s = make path in
      let loads = check_truncations s path + check_flips s path in
      Alcotest.(check bool) "every offset and bit tried" true
        (loads = 9 * String.length s.file + 1))

(* --- grid journal -------------------------------------------------------- *)

let grid_context = "torn-write grid"

let show_entry (e : Journal.entry) =
  Printf.sprintf "%d %s %d %d %s %h" e.Journal.seed e.Journal.detector
    e.Journal.window e.Journal.anomaly_size
    (Outcome.to_string e.Journal.outcome)
    (Outcome.max_response e.Journal.outcome)

(* Six seeded cells over three flushes: a header rewrite, then
   appends. *)
let grid_subject path =
  let rng = Prng.create ~seed:11 in
  let cells =
    List.init 6 (fun _ ->
        {
          Journal.seed = 42;
          detector = Prng.choose rng [| "stide"; "markov"; "lnb"; "nn" |];
          window = 2 + Prng.int rng 8;
          anomaly_size = 2 + Prng.int rng 8;
          outcome =
            (match Prng.int rng 3 with
            | 0 -> Outcome.Blind
            | 1 -> Outcome.Weak (Prng.float rng 0.9)
            | _ -> Outcome.Capable 1.0);
        })
  in
  let j = Journal.start ~context:grid_context path in
  List.iteri
    (fun i e ->
      Journal.record j e;
      if i mod 2 = 1 then Journal.flush j)
    cells;
  Alcotest.(check int) "one rewrite, so file order is record order" 1
    (Journal.compactions j);
  let file = read_file path in
  {
    file;
    unit_ends = List.filteri (fun i _ -> i >= 2) (newlines file);
    states =
      Array.init 7 (fun u ->
          List.map show_entry (List.filteri (fun i _ -> i < u) cells));
    load =
      (fun p ->
        match Journal.start ~resume:true ~context:grid_context p with
        | j -> Some (List.map show_entry (Journal.entries j))
        | exception Journal.Corrupt _ -> None);
  }

(* --- shard journal ------------------------------------------------------- *)

let shard_context = "torn-write shard"

let show_shard j =
  List.map
    (fun (s : Shard_journal.session_state) ->
      Printf.sprintf "s %d %d %d %b %s" s.Shard_journal.js_session
        s.Shard_journal.js_consumed s.Shard_journal.js_state
        (Option.is_some s.Shard_journal.js_open)
        (Option.value ~default:"-" s.Shard_journal.js_adaptive))
    (Shard_journal.sessions j)
  @ List.map
      (fun (b : Shard_journal.batch_record) ->
        Printf.sprintf "b %d %d %d" b.Shard_journal.jb_id
          b.Shard_journal.jb_events
          (List.length b.Shard_journal.jb_incidents))
      (Shard_journal.batches j)

(* Five seeded commit groups: static and adaptive sessions, ends, and a
   batch each, some carrying incidents. *)
let shard_subject path =
  let rng = Prng.create ~seed:17 in
  let j = Shard_journal.start ~context:shard_context path in
  let empty = show_shard j in
  let committed =
    List.init 5 (fun g ->
        for _ = 0 to Prng.int rng 3 do
          let id = Prng.int rng 4 in
          if Prng.int rng 4 = 0 then Shard_journal.record_end j ~session:id
          else
            Shard_journal.record_session j
              {
                Shard_journal.js_session = id;
                js_consumed = (100 * g) + id;
                js_state = Prng.int rng 276;
                js_open =
                  (if Prng.bool rng then None
                   else
                     Some
                       {
                         Frame.first_start = g;
                         last_start = g + 2;
                         cover_from = g;
                         cover_to = g + 7;
                         alarms = 2;
                         peak_score = 0.75;
                       });
                js_adaptive =
                  (if Prng.bool rng then None
                   else Some (Printf.sprintf "at1:%d" (Prng.int rng 1000)));
              }
        done;
        Shard_journal.record_batch j
          {
            Shard_journal.jb_id = g;
            jb_shard = 0;
            jb_events = 1 + Prng.int rng 50;
            jb_incidents =
              (if Prng.bool rng then []
               else [ Frame.Opened { session = 1; position = g } ]);
          };
        Shard_journal.commit j;
        show_shard j)
  in
  Alcotest.(check int) "one rewrite, so file groups are commits" 1
    (Shard_journal.compactions j);
  let file = read_file path in
  {
    file;
    unit_ends =
      List.filter
        (fun e ->
          let start =
            match String.rindex_from_opt file (e - 1) '\n' with
            | Some p -> p + 1
            | None -> 0
          in
          String.sub file start 2 = "k ")
        (newlines file);
    states = Array.of_list (empty :: committed);
    load =
      (fun p ->
        match Shard_journal.start ~resume:true ~context:shard_context p with
        | j -> Some (show_shard j)
        | exception Shard_journal.Corrupt _ -> None);
  }

let () =
  Alcotest.run "torn-write"
    [
      ( "torn-write",
        [
          Alcotest.test_case "grid journal" `Quick (run_property grid_subject);
          Alcotest.test_case "shard journal" `Quick
            (run_property shard_subject);
        ] );
    ]
