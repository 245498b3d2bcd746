(* Seeded, stateless fault injection.  Every decision is a pure
   function of (plan seed, task key, attempt): no PRNG state is
   consumed, so the plan trips the same tasks at every jobs count, in
   every execution order, and across interrupted-and-resumed runs —
   which is what lets the chaos tests compare faulted runs
   byte-for-byte. *)

type t = {
  seed : int;
  transient_rate : float;
  fatal_rate : float;
  hang_rate : float;
  torn_rate : float;
  sticky : int;
}

let check_rate name r =
  if not (r >= 0.0 && r <= 1.0) then
    (* lint: allow partiality — documented precondition *)
    invalid_arg (Printf.sprintf "Fault_plan.of_seed: %s not in [0, 1]" name)

let of_seed ?(transient_rate = 0.05) ?(fatal_rate = 0.0) ?(hang_rate = 0.0)
    ?(torn_rate = 0.0) ?(sticky = 1) ~seed () =
  check_rate "transient_rate" transient_rate;
  check_rate "fatal_rate" fatal_rate;
  check_rate "hang_rate" hang_rate;
  check_rate "transient_rate + fatal_rate + hang_rate"
    (transient_rate +. fatal_rate +. hang_rate);
  check_rate "torn_rate" torn_rate;
  {
    seed;
    transient_rate;
    fatal_rate;
    hang_rate;
    torn_rate;
    sticky = Stdlib.max 1 sticky;
  }

(* SplitMix64 finaliser over the (seed, key) pair: a high-quality,
   order-free hash — the same mixer Seqdiv_util.Prng steps with, used
   here statelessly. *)
let mix seed key =
  let open Seqdiv_util.Hash in
  splitmix64 (Int64.add (Int64.mul (Int64.of_int seed) golden_gamma) key)

let uniform seed key =
  Int64.to_float (Int64.shift_right_logical (mix seed key) 11)
  /. 9007199254740992.0 (* 2^53 *)

let decide t ~key ~attempt =
  let u = uniform t.seed key in
  if u < t.fatal_rate then Some Fault.Fatal
  else if u < t.fatal_rate +. t.hang_rate then Some Fault.Timeout
  else if
    u < t.fatal_rate +. t.hang_rate +. t.transient_rate && attempt < t.sticky
  then Some Fault.Transient
  else None

let trip t ~key ~attempt =
  match decide t ~key ~attempt with
  | None -> ()
  | Some Fault.Timeout ->
      (* A hang-fated task never returns: spin cooperatively until the
         supervisor's armed deadline fires.  Without an armed deadline
         this raises [Deadline.Hang_refused] (classified Fatal) instead
         of actually hanging the run. *)
      Seqdiv_util.Deadline.hang ()
  | Some severity ->
      raise
        (Fault.Injected
           ( severity,
             Printf.sprintf "chaos seed=%d key=0x%Lx attempt=%d" t.seed key
               attempt ))

(* Serve-layer keys.  A sub-batch is (batch id, shard); the key of its
   response frame inverts the bits, so job fates and frame fates hash
   disjoint key spaces and one seed drives both without correlation. *)
let job_key ~batch_id ~shard =
  Int64.logxor
    (Int64.shift_left (Int64.of_int shard) 48)
    (Int64.of_int batch_id)

let frame_key ~batch_id ~shard = Int64.lognot (job_key ~batch_id ~shard)

let tear t ~key ~attempt = attempt = 0 && uniform t.seed key < t.torn_rate

let describe t =
  Printf.sprintf
    "chaos plan: seed=%d transient=%.3f fatal=%.3f hang=%.3f%s sticky=%d \
     attempt(s)"
    t.seed t.transient_rate t.fatal_rate t.hang_rate
    (if t.torn_rate > 0.0 then Printf.sprintf " torn=%.3f" t.torn_rate else "")
    t.sticky

(* A public window onto the same stateless hash, for consumers that
   need deterministic per-key randomness outside a fault decision —
   e.g. the bench client's backoff jitter. *)
let jitter ~seed ~key = uniform seed key
