(* Crash-safe run journal: the record codec for performance-map cells
   over Wal, which owns the file layout, digests, durability and
   recovery.  What stays here is the cell line, the index the resumed
   run consults, and the compaction trigger.  See the .mli. *)

let version = 2
let magic = Printf.sprintf "seqdiv-journal v%d" version

(* Version 1 files (whole-file-rewrite era) are identical per line;
   accept them on load and upgrade the header on the first rewrite. *)
let magic_v1 = "seqdiv-journal v1"

exception Corrupt of string

type entry = {
  seed : int;
  detector : string;
  window : int;
  anomaly_size : int;
  outcome : Outcome.t;
}

type t = {
  wal : Wal.t;
  compact_factor : float;
  index : (int * string * int * int, Outcome.t) Hashtbl.t;
  mutable entries : entry list; (* newest first *)
  mutable pending : string list; (* bodies not yet on disk, newest first *)
  mutable recovered : int;
}

(* --- line codec --------------------------------------------------------- *)

let check_field name s =
  if s = "" || String.exists (fun c -> c = ' ' || c = '\n' || c = '\t') s then
    (* lint: allow partiality — documented precondition *)
    invalid_arg (Printf.sprintf "Journal: %s contains whitespace: %S" name s)

let outcome_tag = function
  | Outcome.Blind -> "blind"
  | Outcome.Weak _ -> "weak"
  | Outcome.Capable _ -> "capable"
  | Outcome.Failed _ ->
      (* lint: allow partiality — documented precondition *)
      invalid_arg "Journal: Failed cells are never journalled"

let body_of_entry e =
  check_field "detector name" e.detector;
  Printf.sprintf "cell %d %s %d %d %s %016Lx" e.seed e.detector e.window
    e.anomaly_size (outcome_tag e.outcome)
    (Int64.bits_of_float (Outcome.max_response e.outcome))

let entry_of_body body =
  match String.split_on_char ' ' body with
  | [ "cell"; seed; detector; window; anomaly_size; tag; bits ] -> (
      match
        ( int_of_string_opt seed,
          int_of_string_opt window,
          int_of_string_opt anomaly_size,
          Int64.of_string_opt ("0x" ^ bits) )
      with
      | Some seed, Some window, Some anomaly_size, Some bits -> (
          let m = Int64.float_of_bits bits in
          let outcome =
            match tag with
            | "blind" when m = 0.0 -> Some Outcome.Blind
            | "weak" -> Some (Outcome.Weak m)
            | "capable" -> Some (Outcome.Capable m)
            | _ -> None
          in
          match outcome with
          | Some outcome -> Some { seed; detector; window; anomaly_size; outcome }
          | None -> None)
      | _ -> None)
  | _ -> None

let key_of e = (e.seed, e.detector, e.window, e.anomaly_size)

let absorb t e =
  Hashtbl.replace t.index (key_of e) e.outcome;
  t.entries <- e :: t.entries

(* --- public api --------------------------------------------------------- *)

let default_compact_factor = 4.0

let start ?(resume = false) ?(compact_factor = default_compact_factor)
    ~context path =
  let t =
    {
      wal = Wal.create ~magic ~context path;
      compact_factor;
      index = Hashtbl.create 256;
      entries = [];
      pending = [];
      recovered = 0;
    }
  in
  if resume then begin
    Wal.recover t.wal ~legacy:magic_v1 ~corrupt:(fun m -> Corrupt m) ~run:"run"
      (fun body ->
        match entry_of_body body with
        | Some e ->
            absorb t e;
            true
        | None -> false);
    t.recovered <- Hashtbl.length t.index
  end;
  t

let recovered t = t.recovered
let dropped_lines t = Wal.dropped t.wal
let appends t = Wal.appends t.wal
let compactions t = Wal.compactions t.wal

let lookup t ~seed ~detector ~window ~anomaly_size =
  Hashtbl.find_opt t.index (seed, detector, window, anomaly_size)

let record t e =
  let body = body_of_entry e (* validates before accepting *) in
  absorb t e;
  t.pending <- body :: t.pending

let entries t = List.rev t.entries

(* The live entries, oldest-first, one per key (the newest record of
   each key — what the index answers).  This is what a rewrite emits,
   which is what bounds the file by the live cell count. *)
let live_entries t =
  let seen = Hashtbl.create (Hashtbl.length t.index) in
  let keep =
    List.filter
      (fun e ->
        let k = key_of e in
        if Hashtbl.mem seen k then false
        else begin
          Hashtbl.add seen k ();
          true
        end)
      t.entries (* newest first: the first occurrence of a key wins *)
  in
  List.rev keep

(* Appends the pending lines unless the file cannot take an append or
   its cell lines would exceed [compact_factor] x the live entries; a
   factor <= 0 rewrites on every flush. *)
let flush t =
  if t.pending <> [] then begin
    let lines = Wal.lines t.wal + List.length t.pending in
    Wal.write t.wal
      ~compact:
        (t.compact_factor <= 0.0
        || float_of_int lines
           > t.compact_factor *. float_of_int (Hashtbl.length t.index))
      (List.rev t.pending)
      (fun () -> List.map body_of_entry (live_entries t));
    t.pending <- []
  end
