(* Adaptive per-detector thresholds (see the .mli for the model).

   [step] is a registered hot/score root (Reach): the per-window path
   is straight-line, allocation-free, and checkpointed through the
   sketch's own insert/compress loops. *)

type config = {
  budget : float;
  epsilon : float;
  warmup : int;
  refresh : int;
  hysteresis : float;
  initial : float;
}

let config ~budget ?epsilon ?(warmup = 128) ?(refresh = 32)
    ?(hysteresis = 0.25) ~initial () =
  let epsilon = match epsilon with Some e -> e | None -> budget /. 4.0 in
  if not (budget > 0.0 && budget < 1.0) then
    (* lint: allow partiality — documented precondition *)
    invalid_arg
      (Printf.sprintf "Adaptive_threshold.config: budget %g not in (0, 1)"
         budget);
  if not (epsilon > 0.0 && epsilon < 0.5) then
    (* lint: allow partiality — documented precondition *)
    invalid_arg
      (Printf.sprintf "Adaptive_threshold.config: epsilon %g not in (0, 0.5)"
         epsilon);
  if warmup < 1 || refresh < 1 then
    (* lint: allow partiality — documented precondition *)
    invalid_arg "Adaptive_threshold.config: warmup and refresh must be >= 1";
  if not (hysteresis >= 0.0) then
    (* lint: allow partiality — documented precondition *)
    invalid_arg "Adaptive_threshold.config: hysteresis must be >= 0";
  if Float.is_nan initial then
    (* lint: allow partiality — documented precondition *)
    invalid_arg "Adaptive_threshold.config: initial threshold is NaN";
  { budget; epsilon; warmup; refresh; hysteresis; initial }

type t = {
  cfg : config;
  sk : Quantile.t;
  mutable cur : float;
  mutable n_windows : int;
  mutable n_alarms : int;
  mutable n_adjustments : int;
}

let target_phi cfg = 1.0 -. cfg.budget

let create cfg =
  {
    cfg;
    sk = Quantile.create ~epsilon:cfg.epsilon;
    cur = cfg.initial;
    n_windows = 0;
    n_alarms = 0;
    n_adjustments = 0;
  }

let threshold t = t.cur
let windows t = t.n_windows
let alarms t = t.n_alarms
let adjustments t = t.n_adjustments

let observed_rate t =
  if t.n_windows = 0 then 0.0
  else float_of_int t.n_alarms /. float_of_int t.n_windows

(* Hysteresis lives in probability space, not value space: the
   threshold moves only when keeping it would misprice the tail mass —
   the alarm rate the sketch implies for the current threshold — by
   more than [hysteresis * budget].  A value-space band fails on
   atom-heavy score distributions: a move of 1e-3 in score can reprice
   20% of the mass (a heavy atom just above the threshold), while a
   move of 0.5 can reprice none at all.  Refreshes between real
   distribution shifts leave the threshold (and the incident log)
   untouched. *)
let refresh t =
  let implied_tail = 1.0 -. Quantile.rank t.sk t.cur in
  if
    Float.abs (implied_tail -. t.cfg.budget)
    > t.cfg.hysteresis *. t.cfg.budget
  then begin
    let candidate = Quantile.quantile t.sk (target_phi t.cfg) in
    if Int64.bits_of_float candidate <> Int64.bits_of_float t.cur then begin
      t.cur <- candidate;
      t.n_adjustments <- t.n_adjustments + 1
    end
  end

(* Strictly above, not at: the tracked quantile value can itself be an
   atom carrying arbitrary probability mass (discrete detector scores),
   and charging that atom to the budget would overshoot it unboundedly.
   With [>] the rank guarantee gives P(score > q_phi) <= budget + eps
   for any score distribution; on continuous scores the two rules
   coincide. *)
let step t score =
  let alarm = score > t.cur in
  t.n_windows <- t.n_windows + 1;
  if alarm then t.n_alarms <- t.n_alarms + 1;
  Quantile.observe t.sk score;
  if t.n_windows >= t.cfg.warmup && t.n_windows mod t.cfg.refresh = 0 then
    refresh t;
  alarm

(* --- serialization -----------------------------------------------------

   at1:<windows>:<alarms>:<adjustments>:<threshold-bits>:<sketch...>

   The sketch token keeps its own ':' separators, so parsing splits
   off the first five fields and rejoins the tail. *)

let to_string t =
  Printf.sprintf "at1:%d:%d:%d:%016Lx:%s" t.n_windows t.n_alarms
    t.n_adjustments
    (Int64.bits_of_float t.cur)
    (Quantile.to_string t.sk)

let of_string cfg s =
  match String.split_on_char ':' s with
  | "at1" :: w_s :: a_s :: adj_s :: cur_s :: (_ :: _ as sketch_parts) -> (
      let sketch_s = String.concat ":" sketch_parts in
      let nat x = match int_of_string_opt x with
        | Some i when i >= 0 -> Some i
        | _ -> None
      in
      let cur =
        if String.length cur_s <> 16 then None
        else
          match Int64.of_string_opt ("0x" ^ cur_s) with
          | Some b ->
              let f = Int64.float_of_bits b in
              if Float.is_nan f then None else Some f
          | None -> None
      in
      match (nat w_s, nat a_s, nat adj_s, cur) with
      | Some w, Some a, Some adj, Some cur when a <= w -> (
          (* The sketch must agree with the supplied config: same
             epsilon (bitwise — both sides compute it the same way),
             and exactly one observation per judged window. *)
          match Quantile.of_string sketch_s with
          | Some sk
            when Int64.bits_of_float (Quantile.epsilon sk)
                 = Int64.bits_of_float cfg.epsilon
                 && Quantile.count sk = w ->
              Some
                {
                  cfg;
                  sk;
                  cur;
                  n_windows = w;
                  n_alarms = a;
                  n_adjustments = adj;
                }
          | _ -> None)
      | _ -> None)
  | _ -> None

let equal a b =
  a.n_windows = b.n_windows
  && a.n_alarms = b.n_alarms
  && a.n_adjustments = b.n_adjustments
  && Int64.bits_of_float a.cur = Int64.bits_of_float b.cur
  && Quantile.equal a.sk b.sk

(* --- budget allocation -------------------------------------------------- *)

type role = Emitter | Suppressor of string

type member = { m_name : string; m_role : role; m_weight : float }

type allocation = { a_member : member; a_rate : float }

let default_members =
  [
    { m_name = "markov"; m_role = Emitter; m_weight = 1.0 };
    { m_name = "stide"; m_role = Suppressor "markov"; m_weight = 1.0 };
  ]

(* A suppressor's alarms only gate its emitter, so its rate is not
   budget: it is set well above the emitter's (capped at 0.25) so the
   conjunction rarely vetoes a true detection.  The factor is a
   heuristic from the suppression study (test_adaptive_threshold pins
   its effect on the 112-stream suite). *)
let suppressor_relax = 16.0
let suppressor_cap = 0.25

let allocate ~system_rate members =
  if not (system_rate > 0.0 && system_rate < 1.0) then
    (* lint: allow partiality — documented precondition *)
    invalid_arg
      (Printf.sprintf "Adaptive_threshold.allocate: rate %g not in (0, 1)"
         system_rate);
  if members = [] then
    (* lint: allow partiality — documented precondition *)
    invalid_arg "Adaptive_threshold.allocate: no members";
  List.iteri
    (fun i m ->
      if m.m_name = "" then
        (* lint: allow partiality — documented precondition *)
        invalid_arg "Adaptive_threshold.allocate: empty member name";
      if not (m.m_weight > 0.0 && Float.is_finite m.m_weight) then
        (* lint: allow partiality — documented precondition *)
        invalid_arg
          (Printf.sprintf
             "Adaptive_threshold.allocate: member %s has weight %g (want a \
              positive finite weight)"
             m.m_name m.m_weight);
      List.iteri
        (fun j m' ->
          if i < j && m.m_name = m'.m_name then
            (* lint: allow partiality — documented precondition *)
            invalid_arg
              (Printf.sprintf
                 "Adaptive_threshold.allocate: duplicate member %s" m.m_name))
        members)
    members;
  let is_emitter m =
    match m.m_role with Emitter -> true | Suppressor _ -> false
  in
  let emitter_weight =
    List.fold_left
      (fun acc m -> if is_emitter m then acc +. m.m_weight else acc)
      0.0 members
  in
  if not (emitter_weight > 0.0) then
    (* lint: allow partiality — documented precondition *)
    invalid_arg "Adaptive_threshold.allocate: no Emitter member";
  let emitter_rate m = system_rate *. m.m_weight /. emitter_weight in
  List.map
    (fun m ->
      match m.m_role with
      | Emitter -> { a_member = m; a_rate = emitter_rate m }
      | Suppressor target -> (
          match
            List.find_opt
              (fun m' -> m'.m_name = target && is_emitter m')
              members
          with
          | Some tgt ->
              {
                a_member = m;
                a_rate =
                  Float.min suppressor_cap
                    (suppressor_relax *. emitter_rate tgt);
              }
          | None ->
              (* lint: allow partiality — documented precondition *)
              invalid_arg
                (Printf.sprintf
                   "Adaptive_threshold.allocate: suppressor %s names %s, \
                    which is not an Emitter in the list"
                   m.m_name target)))
    members
