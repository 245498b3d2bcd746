(* Per-shard serve journal: the record codec for session snapshots,
   ends and batch records over Wal, plus commit groups, which make one
   commit atomic with respect to recovery.  See the .mli for the
   contract and the format rationale. *)

open Seqdiv_stream

let magic = "seqdiv-shard-journal v1"

exception Corrupt of string

type session_state = {
  js_session : int;
  js_consumed : int;
  js_state : int;
  js_open : Frame.incident option;
  js_adaptive : string option;
      (* opaque Adaptive_threshold token; space-free by construction *)
}

type batch_record = {
  jb_id : int;
  jb_shard : int;
  jb_events : int;
  jb_incidents : Frame.incident_event list;
}

(* A parsed record line, pre-commit. *)
type record =
  | Session of session_state
  | Ended of int
  | Batch of batch_record

type t = {
  wal : Wal.t;
  batch_history : int;
  live : (int, session_state) Hashtbl.t;
  batch_q : batch_record Queue.t; (* oldest first, bounded *)
  mutable pending : string list; (* record bodies, newest first *)
  mutable pending_count : int;
  mutable recovered_sessions : int;
}

(* --- line codec --------------------------------------------------------- *)

let incident_token (i : Frame.incident) =
  Printf.sprintf "%d:%d:%d:%d:%d:%016Lx" i.Frame.first_start i.Frame.last_start
    i.Frame.cover_from i.Frame.cover_to i.Frame.alarms
    (Int64.bits_of_float i.Frame.peak_score)

let incident_of_token tok =
  match String.split_on_char ':' tok with
  | [ first; last; cfrom; cto; alarms; bits ] -> (
      match
        ( int_of_string_opt first,
          int_of_string_opt last,
          int_of_string_opt cfrom,
          int_of_string_opt cto,
          int_of_string_opt alarms,
          Int64.of_string_opt ("0x" ^ bits) )
      with
      | Some first_start, Some last_start, Some cover_from, Some cover_to,
        Some alarms, Some bits ->
          Some
            {
              Frame.first_start;
              last_start;
              cover_from;
              cover_to;
              alarms;
              peak_score = Int64.float_of_bits bits;
            }
      | _ -> None)
  | _ -> None

(* Static sessions keep the historical 5-field line; adaptive sessions
   append the controller token as a 6th field (it contains no spaces,
   so the space-split parse sees exactly one extra field). *)
let session_body s =
  let base =
    Printf.sprintf "s %d %d %d %s" s.js_session s.js_consumed s.js_state
      (match s.js_open with None -> "-" | Some i -> incident_token i)
  in
  match s.js_adaptive with
  | None -> base
  | Some token -> base ^ " " ^ token

let ended_body session = Printf.sprintf "e %d" session

let incident_event_token = function
  | Frame.Opened { session; position } -> Printf.sprintf "o:%d:%d" session position
  | Frame.Closed { session; incident } ->
      Printf.sprintf "c:%d:%s" session (incident_token incident)

let incident_event_of_token tok =
  match String.index_opt tok ':' with
  | None -> None
  | Some cut -> (
      let rest = String.sub tok (cut + 1) (String.length tok - cut - 1) in
      match String.sub tok 0 cut with
      | "o" -> (
          match String.split_on_char ':' rest with
          | [ session; position ] -> (
              match (int_of_string_opt session, int_of_string_opt position) with
              | Some session, Some position ->
                  Some (Frame.Opened { session; position })
              | _ -> None)
          | _ -> None)
      | "c" -> (
          match String.index_opt rest ':' with
          | None -> None
          | Some cut2 -> (
              let session = String.sub rest 0 cut2 in
              let inc = String.sub rest (cut2 + 1) (String.length rest - cut2 - 1) in
              match (int_of_string_opt session, incident_of_token inc) with
              | Some session, Some incident ->
                  Some (Frame.Closed { session; incident })
              | _ -> None))
      | _ -> None)

let batch_body b =
  Printf.sprintf "b %d %d %d %d%s" b.jb_id b.jb_shard b.jb_events
    (List.length b.jb_incidents)
    (String.concat ""
       (List.map (fun e -> " " ^ incident_event_token e) b.jb_incidents))

let commit_body count = Printf.sprintf "k %d" count

(* A record body (its digest already checked) back into its parsed
   form; None on any damage. *)
let parse_body body =
  match String.split_on_char ' ' body with
  | "s" :: session :: consumed :: state :: open_tok :: (([] | [ _ ]) as extra)
    -> (
      let js_adaptive =
        match extra with [ a ] when a <> "" -> Some a | _ -> None
      in
      match
        ( int_of_string_opt session,
          int_of_string_opt consumed,
          int_of_string_opt state,
          if open_tok = "-" then Some None
          else Option.map Option.some (incident_of_token open_tok) )
      with
      | Some js_session, Some js_consumed, Some js_state, Some js_open ->
          Some
            (`Record
              (Session
                 { js_session; js_consumed; js_state; js_open; js_adaptive }))
      | _ -> None)
  | [ "e"; session ] ->
      Option.map (fun s -> `Record (Ended s)) (int_of_string_opt session)
  | "b" :: id :: shard :: events :: count :: toks -> (
      match
        ( int_of_string_opt id,
          int_of_string_opt shard,
          int_of_string_opt events,
          int_of_string_opt count )
      with
      | Some jb_id, Some jb_shard, Some jb_events, Some count
        when count = List.length toks -> (
          let incidents = List.map incident_event_of_token toks in
          if List.for_all Option.is_some incidents then
            Some
              (`Record
                (Batch
                   {
                     jb_id;
                     jb_shard;
                     jb_events;
                     jb_incidents = List.filter_map Fun.id incidents;
                   }))
          else None)
      | _ -> None)
  | [ "k"; count ] -> Option.map (fun c -> `Commit c) (int_of_string_opt count)
  | _ -> None

(* --- in-memory state ---------------------------------------------------- *)

let apply_record t = function
  | Session s -> Hashtbl.replace t.live s.js_session s
  | Ended session -> Hashtbl.remove t.live session
  | Batch b ->
      Queue.push b t.batch_q;
      while Queue.length t.batch_q > t.batch_history do
        ignore (Queue.pop t.batch_q)
      done

(* --- public api --------------------------------------------------------- *)

(* Rewrite when the file's lines (commit markers included) plus the
   pending records would exceed this many times the live records. *)
let compact_factor = 4.0
let default_batch_history = 64

let start ?(resume = false) ?(batch_history = default_batch_history) ~context
    path =
  let t =
    {
      wal = Wal.create ~magic ~context path;
      batch_history = max 1 batch_history;
      live = Hashtbl.create 256;
      batch_q = Queue.create ();
      pending = [];
      pending_count = 0;
      recovered_sessions = 0;
    }
  in
  if resume then begin
    (* Commit-group recovery: records wait for their commit marker; the
       group the file ends inside, or breaks off at a damaged line or a
       count mismatch, is dropped whole instead of half-applied. *)
    let group = ref [] and size = ref 0 in
    Wal.recover t.wal ~corrupt:(fun m -> Corrupt m) ~run:"serve run"
      (fun body ->
        match parse_body body with
        | Some (`Record r) ->
            group := r :: !group;
            incr size;
            true
        | Some (`Commit count) when count = !size ->
            List.iter (apply_record t) (List.rev !group);
            group := [];
            size := 0;
            true
        | Some (`Commit _) | None -> false);
    Wal.drop t.wal !size;
    t.recovered_sessions <- Hashtbl.length t.live
  end;
  t

let recovered_sessions t = t.recovered_sessions
let dropped_lines t = Wal.dropped t.wal
let appends t = Wal.appends t.wal
let compactions t = Wal.compactions t.wal

let push_pending t body record =
  apply_record t record;
  t.pending <- body :: t.pending;
  t.pending_count <- t.pending_count + 1

let record_session t s = push_pending t (session_body s) (Session s)
let record_end t ~session = push_pending t (ended_body session) (Ended session)
let record_batch t b = push_pending t (batch_body b) (Batch b)

let sessions t =
  (* lint: allow determinism — collection order is erased by the sort *)
  Hashtbl.fold (fun _ s acc -> s :: acc) t.live []
  |> List.sort (fun a b -> compare a.js_session b.js_session)

let batches t = List.of_seq (Queue.to_seq t.batch_q)

(* One commit group: the pending records and their marker, appended;
   or, on a rewrite, the live sessions and retained batches as one
   group. *)
let commit t =
  if t.pending_count > 0 then begin
    let live = Hashtbl.length t.live + Queue.length t.batch_q + 1 in
    Wal.write t.wal
      ~compact:
        (float_of_int (Wal.lines t.wal + t.pending_count)
        > compact_factor *. float_of_int live)
      (List.rev (commit_body t.pending_count :: t.pending))
      (fun () ->
        let records =
          List.map session_body (sessions t) @ List.map batch_body (batches t)
        in
        records @ [ commit_body (List.length records) ]);
    t.pending <- [];
    t.pending_count <- 0
  end
