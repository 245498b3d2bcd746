type mapping = int array

let max_distinct_calls = 1024

let parse text =
  let compact = Hashtbl.create 64 in
  let order = ref [] in
  let symbol_of_call call =
    match Hashtbl.find_opt compact call with
    | Some s -> s
    | None ->
        let s = Hashtbl.length compact in
        if s >= max_distinct_calls then
          Parse_error.fail "Syscall_trace.parse: too many distinct calls";
        Hashtbl.add compact call s;
        order := call :: !order;
        s
  in
  (* Per-pid event lists (reversed), pids in order of first appearance. *)
  let events = Hashtbl.create 16 in
  let pid_order = ref [] in
  let lines = String.split_on_char '\n' text in
  List.iteri
    (fun lineno line ->
      let tokens =
        String.split_on_char ' ' line
        |> List.concat_map (String.split_on_char '\t')
        |> List.filter (fun t -> t <> "")
      in
      match tokens with
      | [] -> ()
      | [ pid_tok; call_tok ] -> (
          match (int_of_string_opt pid_tok, int_of_string_opt call_tok) with
          | Some pid, Some call when pid >= 0 && call >= 0 ->
              let symbol = symbol_of_call call in
              if not (Hashtbl.mem events pid) then begin
                Hashtbl.add events pid (ref []);
                pid_order := pid :: !pid_order
              end;
              let cell = Hashtbl.find events pid in
              cell := symbol :: !cell
          | _ ->
              Parse_error.fail "Syscall_trace.parse: bad line %d: %S"
                (lineno + 1) line)
      | _ ->
          Parse_error.fail "Syscall_trace.parse: bad line %d: %S" (lineno + 1)
            line)
    lines;
  if Hashtbl.length events = 0 then
    Parse_error.fail "Syscall_trace.parse: no events";
  let mapping = Array.of_list (List.rev !order) in
  let alphabet = Alphabet.make (Stdlib.max 1 (Array.length mapping)) in
  let traces =
    (* [pid_order] holds newest-first; rev_map restores appearance order. *)
    List.rev_map
      (fun pid ->
        let cell = Hashtbl.find events pid in
        Trace.of_list alphabet (List.rev !cell))
      !pid_order
  in
  (Sessions.of_traces traces, mapping)

let parse_file path =
  let ic = open_in path in
  let contents =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  parse contents

let render sessions mapping =
  let buf = Buffer.create 4096 in
  List.iteri
    (fun i trace ->
      let pid = i + 1 in
      for j = 0 to Trace.length trace - 1 do
        Buffer.add_string buf
          (Printf.sprintf "%d %d\n" pid mapping.(Trace.get trace j))
      done)
    (Sessions.traces sessions);
  Buffer.contents buf

let syscall_name mapping symbol =
  assert (symbol >= 0 && symbol < Array.length mapping);
  mapping.(symbol)
