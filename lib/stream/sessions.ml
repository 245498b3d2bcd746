
type t = { alphabet : Alphabet.t; traces : Trace.t list }

let of_traces traces =
  match traces with
  (* lint: allow partiality — documented precondition *)
  | [] -> invalid_arg "Sessions.of_traces: empty corpus"
  | first :: rest ->
      let alphabet = Trace.alphabet first in
      List.iter
        (fun tr ->
          if Alphabet.size (Trace.alphabet tr) <> Alphabet.size alphabet then
            (* lint: allow partiality — documented precondition *)
            invalid_arg "Sessions.of_traces: mismatched alphabets")
        rest;
      { alphabet; traces }

let alphabet t = t.alphabet
let count t = List.length t.traces
let total_length t = List.fold_left (fun acc tr -> acc + Trace.length tr) 0 t.traces
let traces t = t.traces

let window_count t ~width =
  List.fold_left (fun acc tr -> acc + Trace.window_count tr ~width) 0 t.traces

let split trace ~session_length =
  assert (session_length >= 2);
  let n = Trace.length trace in
  let rec cut pos acc =
    if pos >= n then List.rev acc
    else begin
      let remaining = n - pos in
      if remaining >= session_length then
        cut (pos + session_length)
          (Trace.sub trace ~pos ~len:session_length :: acc)
      else if remaining >= session_length / 2 then
        List.rev (Trace.sub trace ~pos ~len:remaining :: acc)
      else List.rev acc
    end
  in
  of_traces (cut 0 [])

let generate make rng ~sessions ~length =
  assert (sessions >= 1 && length >= 1);
  let traces =
    List.init sessions (fun i ->
        let tr = make rng i in
        assert (Trace.length tr = length);
        tr)
  in
  of_traces traces
