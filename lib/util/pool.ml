(* The one concurrency-bearing module of the library (lint rule R6).
   Work items are claimed one at a time from a shared atomic cursor and
   results land in their input slot, which is what makes the maps
   order-preserving and hence byte-identical across jobs counts.

   [map_result] is the isolation primitive the engine's supervisor is
   built on: every task runs in its own try frame and an exception is
   captured into that task's result slot — one raising closure can
   never poison the rest of the batch. *)

type t = { jobs : int }

let create ~jobs = { jobs = Stdlib.max 1 jobs }
let jobs t = t.jobs
let recommended_jobs () = Domain.recommended_domain_count ()

type failure = {
  index : int;
  exn : exn;
  backtrace : Printexc.raw_backtrace;
}

(* Run one task in isolation: the catch-all is not a swallow — the
   exception travels to the caller inside the task's [Error] slot. *)
let run_isolated f i x =
  match f x with
  | v -> Ok v
  (* lint: allow swallow — captured into the task's result slot *)
  | exception exn ->
      (* Capture the backtrace as the handler's very first action: the
         domain holds only the *current* exception's backtrace, so any
         allocation or raise-and-catch sequenced before the read (record
         field evaluation order is unspecified) could clobber it.  With
         the capture hoisted, every failing slot of a worker's loop —
         including the second of two failures caught by the same
         worker — keeps its own backtrace. *)
      let backtrace = Printexc.get_raw_backtrace () in
      Error { index = i; exn; backtrace }

let map_result_array t f input =
  let n = Array.length input in
  if t.jobs = 1 || n <= 1 then Array.mapi (run_isolated f) input
  else begin
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let worker () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          results.(i) <- Some (run_isolated f i input.(i));
          loop ()
        end
      in
      loop ()
    in
    (* Backtrace recording is per-domain state in OCaml 5 and a fresh
       domain starts from the runtime default, not from the caller's
       setting — without this a failure caught on a spawned worker
       would carry an empty backtrace while the same failure on the
       calling domain carries a full one. *)
    let record_backtraces = Printexc.backtrace_status () in
    let spawned =
      Array.init
        (Stdlib.min (t.jobs - 1) (n - 1))
        (fun _ ->
          Domain.spawn (fun () ->
              Printexc.record_backtrace record_backtraces;
              worker ()))
    in
    worker ();
    Array.iter Domain.join spawned;
    Array.map
      (function
        | Some r -> r
        | None ->
            (* Unreachable: the cursor hands out every index below [n]
               exactly once and [run_isolated] never raises. *)
            (* lint: allow partiality — pool fill invariant *)
            invalid_arg "Pool.map_result: unfilled result slot")
      results
  end

let map_result t f xs = Array.to_list (map_result_array t f (Array.of_list xs))

let map_array t f input =
  let results = map_result_array t f input in
  (* In-order scan: the first [Error] met is the lowest-index failure,
     and it re-raises with the backtrace captured in *its own* slot —
     never a backtrace smeared from another failure caught by the same
     worker. *)
  Array.iter
    (function
      | Error { exn; backtrace; _ } ->
          Printexc.raise_with_backtrace exn backtrace
      | Ok _ -> ())
    results;
  Array.map
    (function
      | Ok v -> v
      | Error _ ->
          (* Unreachable: the lowest-index failure re-raised above. *)
          (* lint: allow partiality — pool fill invariant *)
          invalid_arg "Pool.map: failure survived the re-raise scan")
    results

let map t f xs = Array.to_list (map_array t f (Array.of_list xs))

let map2 t f xs ys =
  (* The length guard must fire before any task can start (and in
     particular before any domain is spawned): compare lengths with one
     explicit scan rather than trusting a downstream combine. *)
  let rec same_length = function
    | [], [] -> true
    | _ :: xs, _ :: ys -> same_length (xs, ys)
    | [], _ :: _ | _ :: _, [] -> false
  in
  if not (same_length (xs, ys)) then
    (* lint: allow partiality — documented precondition *)
    invalid_arg "Pool.map2: lists of unequal length";
  map t (fun (x, y) -> f x y) (List.combine xs ys)
