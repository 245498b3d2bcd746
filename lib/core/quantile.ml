(* Streaming quantile sketches (see quantile.mli for the contract).

   Lint posture: [observe] is a registered hot/score root (Reach), so
   the per-symbol path keeps to preallocated parallel arrays and
   mutable scratch fields — no refs, closures or tuples — and every
   looping function calls Deadline.checkpoint directly (R9).  The
   amortised paths (compress, grow, query, merge, serialization) run
   once per stride or per snapshot and may use refs hoisted out of
   their loops. *)

(* --- Greenwald–Khanna ε-summary ---------------------------------------

   State is a sorted sequence of tuples (v, g, Δ): [g] is the gap in
   minimum rank to the previous tuple, [Δ] the extra rank slack.  The
   invariant g_i + Δ_i <= max(1, ⌊2εn⌋) bounds any rank query's error
   by ⌊εn⌋.  Tuples live in parallel arrays so the per-observation
   insert is a binary search plus an Array.blit — no boxing, no
   per-symbol allocation. *)

type t = {
  eps : float;
  stride : int;  (* compress every [stride] observations: ⌊1/(2ε)⌋ *)
  mutable n : int;  (* observations absorbed *)
  mutable len : int;  (* tuples retained *)
  mutable since : int;  (* observations since the last compress *)
  mutable vs : float array;
  mutable gs : int array;
  mutable ds : int array;
  (* Scratch for the insert binary search: fields, not refs, so the
     per-symbol path allocates nothing. *)
  mutable lo : int;
  mutable hi : int;
}

let initial_capacity = 16

let make ~epsilon =
  {
    eps = epsilon;
    stride = Stdlib.max 1 (int_of_float (1.0 /. (2.0 *. epsilon)));
    n = 0;
    len = 0;
    since = 0;
    vs = Array.make initial_capacity 0.0;
    gs = Array.make initial_capacity 0;
    ds = Array.make initial_capacity 0;
    lo = 0;
    hi = 0;
  }

let create ~epsilon =
  if not (epsilon > 0.0 && epsilon < 0.5) then
    (* lint: allow partiality — documented precondition *)
    invalid_arg (Printf.sprintf "Quantile.create: epsilon %g not in (0, 0.5)"
                   epsilon);
  make ~epsilon

let epsilon t = t.eps
let count t = t.n
let tuples t = t.len

(* ⌊2εn⌋ — the tuple-capacity bound at the current stream length. *)
let capacity_bound t = int_of_float (2.0 *. t.eps *. float_of_int t.n)

(* One right-to-left pass merging each tuple into its surviving
   successor while the bound allows.  The minimum (tuple 0) and maximum
   (last tuple) are never merged away, so rank-1 and rank-n queries
   stay exact.  Cascading merges into an already-grown successor are
   sound: the condition re-checks the accumulated g each time. *)
let compress t =
  Seqdiv_util.Deadline.checkpoint ();
  if t.len > 2 then begin
    let bound = capacity_bound t in
    (* lint: allow allocation — once per stride; no closure captures the refs, so they compile to local variables *)
    let j = ref (t.len - 1) and i = ref (t.len - 2) in
    while !i >= 1 do
      if t.gs.(!i) + t.gs.(!j) + t.ds.(!j) <= bound then
        t.gs.(!j) <- t.gs.(!j) + t.gs.(!i)
      else begin
        let k = !j - 1 in
        t.vs.(k) <- t.vs.(!i);
        t.gs.(k) <- t.gs.(!i);
        t.ds.(k) <- t.ds.(!i);
        j := k
      end;
      decr i
    done;
    let start = !j - 1 in
    t.vs.(start) <- t.vs.(0);
    t.gs.(start) <- t.gs.(0);
    t.ds.(start) <- t.ds.(0);
    let kept = t.len - start in
    if start > 0 then begin
      Array.blit t.vs start t.vs 0 kept;
      Array.blit t.gs start t.gs 0 kept;
      Array.blit t.ds start t.ds 0 kept
    end;
    t.len <- kept
  end;
  t.since <- 0

let grow t =
  let cap = 2 * Array.length t.vs in
  (* lint: allow allocation — amortised: the capacity doubles, so a sketch grows O(log n) times *)
  let vs = Array.make cap 0.0 and gs = Array.make cap 0 and ds = Array.make cap 0 in
  Array.blit t.vs 0 vs 0 t.len;
  Array.blit t.gs 0 gs 0 t.len;
  Array.blit t.ds 0 ds 0 t.len;
  t.vs <- vs;
  t.gs <- gs;
  t.ds <- ds

let observe t v =
  Seqdiv_util.Deadline.checkpoint ();
  if Float.is_nan v then
    (* lint: allow partiality — documented precondition *)
    invalid_arg "Quantile.observe: NaN";
  (* On a full array, grow — never compress.  Capacity is not part of
     the serialized state, so an occupancy-triggered compress would
     make a restored sketch (rebuilt at minimal capacity) evolve
     differently from the live one it snapshotted.  Compression stays
     purely count-triggered below. *)
  if t.len = Array.length t.vs then grow t;
  (* Upper-bound binary search: first index whose value exceeds [v]
     (ties insert after their equals — deterministic). *)
  t.lo <- 0;
  t.hi <- t.len;
  while t.lo < t.hi do
    let mid = (t.lo + t.hi) / 2 in
    if t.vs.(mid) <= v then t.lo <- mid + 1 else t.hi <- mid
  done;
  let pos = t.lo in
  let delta =
    if pos = 0 || pos = t.len then 0
    else Stdlib.max 0 (capacity_bound t - 1)
  in
  if pos < t.len then begin
    Array.blit t.vs pos t.vs (pos + 1) (t.len - pos);
    Array.blit t.gs pos t.gs (pos + 1) (t.len - pos);
    Array.blit t.ds pos t.ds (pos + 1) (t.len - pos)
  end;
  t.vs.(pos) <- v;
  t.gs.(pos) <- 1;
  t.ds.(pos) <- delta;
  t.len <- t.len + 1;
  t.n <- t.n + 1;
  t.since <- t.since + 1;
  (* Count-triggered, never occupancy-triggered: the same stream in any
     batching leaves bit-identical state (the determinism contract). *)
  if t.since >= t.stride then compress t

let quantile t phi =
  Seqdiv_util.Deadline.checkpoint ();
  if t.n = 0 then
    (* lint: allow partiality — documented precondition *)
    invalid_arg "Quantile.quantile: empty summary";
  if not (phi >= 0.0 && phi <= 1.0) then
    (* lint: allow partiality allocation — documented precondition; the message is built only on the raise *)
    invalid_arg (Printf.sprintf "Quantile.quantile: phi %g not in [0, 1]" phi);
  let r =
    Stdlib.min t.n
      (Stdlib.max 1 (int_of_float (Float.ceil (phi *. float_of_int t.n))))
  in
  let err = int_of_float (t.eps *. float_of_int t.n) in
  (* The last tuple whose maximum possible rank is still <= r + err;
     tuple 0 (rank_max = 1) always qualifies, so [best] is total. *)
  (* lint: allow allocation — once per refresh; no closure captures the refs, so they compile to local variables *)
  let rank_min = ref 0 and best = ref t.vs.(0) and i = ref 0 in
  while !i < t.len do
    rank_min := !rank_min + t.gs.(!i);
    if !rank_min + t.ds.(!i) <= r + err then best := t.vs.(!i);
    incr i
  done;
  !best

let rank t x =
  Seqdiv_util.Deadline.checkpoint ();
  if t.n = 0 then
    (* lint: allow partiality — documented precondition *)
    invalid_arg "Quantile.rank: empty summary";
  if Float.is_nan x then
    (* lint: allow partiality — documented precondition *)
    invalid_arg "Quantile.rank: NaN";
  if Float.compare x t.vs.(0) < 0 then 0.0
  else if Float.compare x t.vs.(t.len - 1) >= 0 then 1.0
  else begin
    (* lint: allow allocation — once per refresh; no closure captures the refs, so they compile to local variables *)
    let rank_min = ref 0 and i = ref 0 in
    while !i < t.len && Float.compare t.vs.(!i) x <= 0 do
      rank_min := !rank_min + t.gs.(!i);
      incr i
    done;
    (* [!i] is the first tuple strictly above [x] (it exists: [x] is
       below the exactly-retained maximum).  The exact count of
       observations <= x lies in [rmin, rmin + g_i + Δ_i - 1], an
       interval of width at most ⌊2·ε·n⌋ by the summary invariant, so
       its midpoint is within ⌊ε·n⌋ ranks of the truth. *)
    let est = !rank_min + ((t.gs.(!i) + t.ds.(!i)) / 2) in
    float_of_int est /. float_of_int t.n
  end

(* --- merge ------------------------------------------------------------- *)

(* Total, deterministic tuple order: Float.compare, bit patterns for
   the -0.0/+0.0 tie, then (g, Δ).  Identical tuple multisets sort to
   identical sequences whichever summary comes first, which is what
   makes merge commutative at the bit level. *)
let tuple_compare av ag ad bv bg bd =
  let c = Float.compare av bv in
  let c =
    if c <> 0 then c
    else Int64.compare (Int64.bits_of_float av) (Int64.bits_of_float bv)
  in
  let c = if c <> 0 then c else Stdlib.compare ag bg in
  if c <> 0 then c else Stdlib.compare ad bd

let merge a b =
  Seqdiv_util.Deadline.checkpoint ();
  let eps = a.eps +. b.eps in
  let t = make ~epsilon:(Stdlib.min eps 0.499) in
  (* Keep the advertised (wider) bound even when clamping the stride's
     epsilon: queries use [t.eps]. *)
  let t = { t with eps } in
  t.n <- a.n + b.n;
  let total = a.len + b.len in
  if total > 0 then begin
    if Array.length t.vs < total then begin
      let cap = ref (Array.length t.vs) in
      while !cap < total do
        cap := !cap * 2
      done;
      t.vs <- Array.make !cap 0.0;
      t.gs <- Array.make !cap 0;
      t.ds <- Array.make !cap 0
    end;
    (* Each side's tuples inherit the other side's rank uncertainty:
       Δ' = Δ + ⌊2·ε_other·n_other⌋.  max (g+Δ') is then bounded by
       2·ε_a·n_a + 2·ε_b·n_b <= 2·(ε_a+ε_b)·(n_a+n_b). *)
    let pad_a = int_of_float (2.0 *. b.eps *. float_of_int b.n) in
    let pad_b = int_of_float (2.0 *. a.eps *. float_of_int a.n) in
    let ia = ref 0 and ib = ref 0 and k = ref 0 in
    let take_a () =
      t.vs.(!k) <- a.vs.(!ia);
      t.gs.(!k) <- a.gs.(!ia);
      t.ds.(!k) <- a.ds.(!ia) + pad_a;
      incr ia;
      incr k
    and take_b () =
      t.vs.(!k) <- b.vs.(!ib);
      t.gs.(!k) <- b.gs.(!ib);
      t.ds.(!k) <- b.ds.(!ib) + pad_b;
      incr ib;
      incr k
    in
    while !ia < a.len || !ib < b.len do
      if !ib >= b.len then take_a ()
      else if !ia >= a.len then take_b ()
      else
        let c =
          tuple_compare a.vs.(!ia)
            (a.gs.(!ia))
            (a.ds.(!ia) + pad_a)
            b.vs.(!ib)
            (b.gs.(!ib))
            (b.ds.(!ib) + pad_b)
        in
        (* Identical tuples are taken together: within one summary,
           equal values keep insertion order rather than tuple order, so
           advancing only one side would let [merge a b] and [merge b a]
           interleave the tuples that follow differently. *)
        if c <= 0 then take_a ();
        if c >= 0 then take_b ()
    done;
    t.len <- total;
    compress t
  end;
  t

(* --- serialization -----------------------------------------------------

   gk1:<eps-bits>:<n>:<since>:<len>:<v-bits>.<g>.<d>,...

   Every float is its IEEE-754 bit pattern in fixed-width hex, so the
   roundtrip is bit-exact and the token contains no spaces (it rides
   inside space-delimited shard-journal session lines). *)

let bits f = Printf.sprintf "%016Lx" (Int64.bits_of_float f)

let float_of_hex s =
  if String.length s <> 16 then None
  else
    match Int64.of_string_opt ("0x" ^ s) with
    | Some b ->
        let f = Int64.float_of_bits b in
        if Float.is_nan f then None else Some f
    | None -> None

let int_of_dec s =
  match int_of_string_opt s with Some i when i >= 0 -> Some i | _ -> None

let to_string t =
  let buf = Buffer.create (32 + (t.len * 24)) in
  Buffer.add_string buf
    (Printf.sprintf "gk1:%s:%d:%d:%d:" (bits t.eps) t.n t.since t.len);
  for i = 0 to t.len - 1 do
    if i > 0 then Buffer.add_char buf ',';
    Buffer.add_string buf
      (Printf.sprintf "%s.%d.%d" (bits t.vs.(i)) t.gs.(i) t.ds.(i))
  done;
  Buffer.contents buf

let equal a b =
  Int64.bits_of_float a.eps = Int64.bits_of_float b.eps
  && a.n = b.n && a.since = b.since && a.len = b.len
  &&
  let ok = ref true in
  for i = 0 to a.len - 1 do
    if
      Int64.bits_of_float a.vs.(i) <> Int64.bits_of_float b.vs.(i)
      || a.gs.(i) <> b.gs.(i)
      || a.ds.(i) <> b.ds.(i)
    then ok := false
  done;
  !ok

let of_string s =
  match String.split_on_char ':' s with
  | [ "gk1"; eps_s; n_s; since_s; len_s; tuples_s ] -> (
      match
        (float_of_hex eps_s, int_of_dec n_s, int_of_dec since_s,
         int_of_dec len_s)
      with
      | Some eps, Some n, Some since, Some len
        when eps > 0.0 && eps < 1.0 && len <= n ->
          let t = make ~epsilon:(Stdlib.min eps 0.499) in
          let t = { t with eps } in
          t.n <- n;
          t.since <- since;
          let parts =
            if tuples_s = "" then [] else String.split_on_char ',' tuples_s
          in
          if List.length parts <> len then None
          else begin
            while Array.length t.vs < len do
              grow t
            done;
            let ok = ref true in
            let total_g = ref 0 in
            List.iteri
              (fun i part ->
                match String.split_on_char '.' part with
                | [ v_s; g_s; d_s ] -> (
                    match (float_of_hex v_s, int_of_dec g_s, int_of_dec d_s)
                    with
                    | Some v, Some g, Some d when g >= 1 ->
                        (* Values must be non-decreasing (ties may
                           carry any (g, Δ)), or the state is
                           corrupt. *)
                        if i > 0 && Float.compare t.vs.(i - 1) v > 0 then
                          ok := false;
                        t.vs.(i) <- v;
                        t.gs.(i) <- g;
                        t.ds.(i) <- d;
                        total_g := !total_g + g
                    | _ -> ok := false)
                | _ -> ok := false)
              parts;
            t.len <- len;
            if !ok && !total_g = n then Some t else None
          end
      | _ -> None)
  | _ -> None
