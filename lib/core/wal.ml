(* The write-ahead log both journals store their records in.  See the
   .mli for the layout and the write and recovery contracts. *)

type t = {
  path : string;
  magic : string;
  context : string;
  mutable lines : int;
  mutable appendable : bool;
      (* the file is exactly [magic], the context line and [lines] whole
         lines, each ending in a newline: safe to append to *)
  mutable dropped : int;
  mutable appends : int;
  mutable compactions : int;
}

let create ~magic ~context path =
  if String.contains context '\n' then
    (* lint: allow partiality — documented precondition *)
    invalid_arg "Wal.create: context contains a newline";
  {
    path;
    magic;
    context;
    lines = 0;
    appendable = false;
    dropped = 0;
    appends = 0;
    compactions = 0;
  }

let path t = t.path
let context t = t.context
let lines t = t.lines
let dropped t = t.dropped
let appends t = t.appends
let compactions t = t.compactions

(* --- framing ------------------------------------------------------------ *)

let frame body = Printf.sprintf "%s %016Lx" body (Seqdiv_util.Hash.fnv body)

let unframe line =
  match String.rindex_opt line ' ' with
  | None -> None
  | Some cut -> (
      let body = String.sub line 0 cut in
      match
        Int64.of_string_opt
          ("0x" ^ String.sub line (cut + 1) (String.length line - cut - 1))
      with
      | Some d when Int64.equal d (Seqdiv_util.Hash.fnv body) -> Some body
      | Some _ | None -> None)

(* --- recovery ----------------------------------------------------------- *)

let context_prefix = "context "

(* The file's lines as [input_line] splits them, and whether the last
   one ends in a newline: a file whose last line parses can still be
   append-unsafe. *)
let read_lines path =
  let data = In_channel.with_open_bin path In_channel.input_all in
  let n = String.length data in
  if n = 0 then ([], false)
  else if data.[n - 1] = '\n' then
    (String.split_on_char '\n' (String.sub data 0 (n - 1)), true)
  else (String.split_on_char '\n' data, false)

let recover ?legacy ~corrupt ~run t accept =
  let fail fmt = Printf.ksprintf (fun s -> raise (corrupt s)) fmt in
  if Sys.file_exists t.path then
    match read_lines t.path with
    | [], _ -> fail "%s: empty journal (missing %S header)" t.path t.magic
    | header :: rest, newline_ended ->
        let current = String.equal header t.magic in
        if not (current || Option.equal String.equal (Some header) legacy)
        then fail "%s: bad journal header %S (want %S)" t.path header t.magic;
        let records =
          match rest with
          | line :: records when String.starts_with ~prefix:context_prefix line
            ->
              let n = String.length context_prefix in
              let ctx = String.sub line n (String.length line - n) in
              if not (String.equal ctx t.context) then
                fail
                  "%s: journal was written for a different %s (%s, this run \
                   is %s) — refusing to resume from it"
                  t.path run ctx t.context;
              records
          | _ -> fail "%s: missing context line" t.path
        in
        let rec go = function
          | [] -> ()
          | line :: more -> (
              match unframe line with
              | Some body when accept body ->
                  t.lines <- t.lines + 1;
                  go more
              | Some _ | None -> t.dropped <- 1 + List.length more)
        in
        go records;
        t.appendable <- current && t.dropped = 0 && newline_ended

let drop t n =
  if n > 0 then begin
    t.lines <- t.lines - n;
    t.dropped <- t.dropped + n;
    t.appendable <- false
  end

(* --- writes ------------------------------------------------------------- *)

let fsync_out oc =
  Stdlib.flush oc;
  Unix.fsync (Unix.descr_of_out_channel oc)

let output_line oc line =
  output_string oc line;
  output_char oc '\n'

(* Write-tmp-then-rename: a crash at any instant leaves either the
   previous complete file or the new complete file. *)
let rewrite t bodies =
  let tmp = t.path ^ ".tmp" in
  let oc = open_out_bin tmp in
  (match
     Fun.protect
       ~finally:(fun () -> close_out oc)
       (fun () ->
         output_line oc t.magic;
         output_line oc (context_prefix ^ t.context);
         List.iter (fun b -> output_line oc (frame b)) bodies;
         fsync_out oc)
   with
  | () -> ()
  (* lint: allow swallow — tmp cleanup only; the exception is re-raised *)
  | exception exn ->
      (try Sys.remove tmp with Sys_error _ -> ());
      raise exn);
  Sys.rename tmp t.path;
  t.lines <- List.length bodies;
  t.appendable <- true;
  t.compactions <- t.compactions + 1

let append t bodies =
  (* An interrupted append leaves the tail unknown: until it completes,
     the next write must rewrite. *)
  t.appendable <- false;
  let oc =
    open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 t.path
  in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter (fun b -> output_line oc (frame b)) bodies;
      fsync_out oc);
  t.lines <- t.lines + List.length bodies;
  t.appendable <- true;
  t.appends <- t.appends + 1

let write t ~compact bodies live =
  if compact || (not t.appendable) || not (Sys.file_exists t.path) then
    rewrite t (live ())
  else append t bodies
