(* Cooperative per-task deadlines.  A [spec] is a policy (an injected
   monotonic clock plus a budget); arming it snapshots the clock, and
   long-running loops call {!checkpoint} — a no-op unless the current
   domain armed a deadline — to give the supervisor a chance to bound
   them.  Nothing here is preemptive: a task that never checkpoints is
   never interrupted, which is exactly the cooperative contract.

   Determinism: {!Exceeded} carries only the budget, never the elapsed
   time, so a timed-out task renders the same fault string in every
   run, at every jobs count, under any clock. *)

type spec = { clock : unit -> float; budget_ms : int }

type t = { spec : spec; started : float }

exception Exceeded of int

exception Hang_refused

let spec ~clock ~budget_ms =
  if budget_ms <= 0 then
    (* lint: allow partiality — documented precondition *)
    invalid_arg "Deadline.spec: budget_ms must be positive";
  { clock; budget_ms }

let arm spec = { spec; started = spec.clock () }

let expired t =
  (t.spec.clock () -. t.started) *. 1000.0 > float_of_int t.spec.budget_ms

let check t = if expired t then raise (Exceeded t.spec.budget_ms)

(* The ambient deadline is domain-local state: each worker domain arms
   its own deadline around the one task it is currently executing, so
   checkpoints in library hot loops need no threading of a [t] through
   every signature.  Confined here by design (lint rule R6 elsewhere). *)
let ambient : t option Domain.DLS.key =
  (* lint: allow concurrency — domain-local ambient deadline *)
  Domain.DLS.new_key (fun () -> None)

let active () =
  (* lint: allow concurrency — domain-local ambient deadline *)
  match Domain.DLS.get ambient with None -> false | Some _ -> true

let checkpoint () =
  (* lint: allow concurrency — domain-local ambient deadline *)
  match Domain.DLS.get ambient with None -> () | Some t -> check t

let with_deadline spec f =
  let armed = arm spec in
  (* lint: allow concurrency — domain-local ambient deadline *)
  let previous = Domain.DLS.get ambient in
  (* lint: allow concurrency — domain-local ambient deadline *)
  Domain.DLS.set ambient (Some armed);
  Fun.protect
    ~finally:(fun () ->
      (* lint: allow concurrency — domain-local ambient deadline *)
      Domain.DLS.set ambient previous)
    f

let rec hang () =
  if not (active ()) then raise Hang_refused;
  checkpoint ();
  hang ()

let () =
  Printexc.register_printer (function
    | Exceeded budget ->
        Some (Printf.sprintf "Deadline.Exceeded(budget=%dms)" budget)
    | Hang_refused -> Some "Deadline.Hang_refused"
    | _ -> None)
