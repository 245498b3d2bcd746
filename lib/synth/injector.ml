open Seqdiv_stream

let src = Logs.Src.create "seqdiv.injector" ~doc:"Boundary-clean injection"

module Log = (val Logs.src_log src)

type injection = {
  trace : Trace.t;
  position : int;
  anomaly : int array;
}

exception No_clean_injection of string

let no_clean_injection fmt =
  Format.kasprintf (fun msg -> raise (No_clean_injection msg)) fmt

let clean_boundaries index trace ~position ~size ~width =
  let first = Stdlib.max 0 (position - width + 1) in
  let last =
    Stdlib.min (Trace.length trace - width) (position + size - 1)
  in
  let data = Trace.raw trace in
  let clean = ref true in
  for s = first to last do
    let contains_whole = s <= position && s + width >= position + size in
    if (not contains_whole) && !clean then
      if not (Seq_trie.mem_at index data ~pos:s ~len:width) then
        clean := false
  done;
  !clean

let inject index ~background ~anomaly ~width =
  let size = Array.length anomaly in
  assert (size >= 1);
  let alphabet = Trace.alphabet background in
  let k = Alphabet.size alphabet in
  let n = Trace.length background in
  if n < (4 * width) + (2 * size) + 2 then
    (* lint: allow partiality — documented length precondition *)
    invalid_arg "Injector.inject: background too short";
  (* Phase-align the cut so the left junction follows the cycle: the
     element before the anomaly must be the cycle predecessor of its
     first symbol. *)
  let mid = n / 2 in
  let want_prev = ((anomaly.(0) - 1) + k) mod k in
  let rec align at =
    (* lint: allow partiality — cyclic background guarantees alignment *)
    if at >= n then invalid_arg "Injector.inject: cannot phase-align"
    else if Trace.get background (at - 1) = want_prev then at
    else align (at + 1)
  in
  let at = align (Stdlib.max 1 (mid - k)) in
  (* Splice: left background, anomaly, then the cycle restarted on the
     successor of the anomaly's last symbol. *)
  let left = Trace.sub background ~pos:0 ~len:at in
  let right_len = n - at in
  let right_phase = (anomaly.(size - 1) + 1) mod k in
  let right = Generator.background alphabet ~len:right_len ~phase:right_phase in
  let piece = Trace.of_array alphabet anomaly in
  let trace = Trace.concat (Trace.concat left piece) right in
  if clean_boundaries index trace ~position:at ~size ~width then
    Some { trace; position = at; anomaly = Array.copy anomaly }
  else begin
    Log.debug (fun m ->
        m "candidate [%s] rejected at width %d: dirty boundary"
          (String.concat ";"
             (List.map string_of_int (Array.to_list anomaly)))
          width);
    None
  end

let inject_first index ~background ~candidates ~width =
  List.find_map
    (fun anomaly -> inject index ~background ~anomaly ~width)
    candidates

let incident_span ~position ~size ~width =
  (Stdlib.max 0 (position - width + 1), position + size - 1)
