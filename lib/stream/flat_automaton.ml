open Seqdiv_util

(* A depth-capped Aho-Corasick automaton over a counting trie.

   States are the trie nodes of depth <= depth, in breadth-first order
   (root = 0); the transition row of a state u resolves every symbol c:

     - to the child node, when u is shallower than the cap and the trie
       recorded u.c;
     - otherwise to delta(fail(u), c), where fail(u) is the longest
       proper suffix of u that is itself a trie path.

   Failure links exist only during compilation: BFS order guarantees
   that fail(u) — always strictly shallower than u — has a complete
   transition row by the time u (or a child of u) needs it, so the
   resolved table is built in one pass and the links are discarded.
   Stepping the compiled table maintains the invariant that the current
   state is the longest suffix of the fed stream that is a trie path
   (capped at [depth] symbols); a state of full depth therefore means
   exactly "the last [depth] symbols form a recorded window". *)

type table = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type score_table =
  (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  alphabet_size : int;
  depth : int;
  states : int;
  trans : table;  (* states x alphabet_size, row-major *)
  depths : table;  (* per state: suffix length *)
  counts : table;  (* per state: trie occurrence count *)
  ctotals : table;  (* per state: trie continuation total *)
  parents : table;  (* per state: the state one symbol shorter *)
}

let depth t = t.depth
let alphabet_size t = t.alphabet_size
let states t = t.states
let start = 0

let int_table n : table =
  Bigarray.Array1.create Bigarray.int Bigarray.c_layout n

(* Count the trie nodes of depth <= limit: the state count of the
   automaton.  Explicit parameters (see the Seq_trie descent helpers)
   keep the recursion closure-free; the checkpoint keeps an armed
   deadline able to interrupt a compile of a huge trie. *)
let rec count_nodes trie node d limit k acc =
  Deadline.checkpoint ();
  if d = limit then acc
  else begin
    let total = ref acc in
    for c = 0 to k - 1 do
      match Seq_trie.child_node trie node c with
      | None -> ()
      | Some child -> total := count_nodes trie child (d + 1) limit k (!total + 1)
    done;
    !total
  end

let compile trie ~depth =
  if depth < 1 || depth > Seq_trie.max_len trie then
    (* lint: allow partiality — documented precondition *)
    invalid_arg "Flat_automaton.compile: depth out of range";
  let k = Seq_trie.alphabet_size trie in
  let root = Seq_trie.root trie in
  let states = count_nodes trie root 0 depth k 1 in
  let trans = int_table (states * k) in
  let depths = int_table states in
  let counts = int_table states in
  let ctotals = int_table states in
  let parents = int_table states in
  (* Failure links live only for the duration of this BFS. *)
  let fails = Array.make states 0 in
  let queue = Queue.create () in
  let next_id = ref 1 in
  Bigarray.Array1.set depths 0 0;
  Bigarray.Array1.set counts 0 (Seq_trie.occurrences root);
  Bigarray.Array1.set ctotals 0 (Seq_trie.context_total root);
  Bigarray.Array1.set parents 0 0;
  Queue.add (root, 0) queue;
  let processed = ref 0 in
  while not (Queue.is_empty queue) do
    incr processed;
    if !processed land 1023 = 0 then Deadline.checkpoint ();
    let node, u = Queue.pop queue in
    let du = Bigarray.Array1.get depths u in
    let fu = fails.(u) in
    let row = u * k in
    for c = 0 to k - 1 do
      let child =
        if du < depth then Seq_trie.child_node trie node c else None
      in
      match child with
      | Some ch ->
          let v = !next_id in
          incr next_id;
          Bigarray.Array1.set trans (row + c) v;
          Bigarray.Array1.set depths v (du + 1);
          Bigarray.Array1.set counts v (Seq_trie.occurrences ch);
          Bigarray.Array1.set ctotals v (Seq_trie.context_total ch);
          Bigarray.Array1.set parents v u;
          (* fail(v) = delta(fail(u), c); the root's children fail back
             to the root itself. *)
          fails.(v) <-
            (if u = 0 then 0 else Bigarray.Array1.get trans ((fu * k) + c));
          Queue.add (ch, v) queue
      | None ->
          (* No child (or depth cap reached): resolve through the
             failure link, whose row — strictly shallower — is already
             complete. *)
          Bigarray.Array1.set trans (row + c)
            (if u = 0 then 0 else Bigarray.Array1.get trans ((fu * k) + c))
    done
  done;
  assert (!next_id = states);
  { alphabet_size = k; depth; states; trans; depths; counts; ctotals; parents }

(* The per-symbol hot path: one bounds check, one table read.  The
   [unsafe_get] is justified by construction ([compile]) or validation
   ([of_tables]): every stored transition target is a valid state, so a
   valid [state] input yields a valid output, inductively from
   [start]. *)
let step t state symbol =
  if symbol < 0 || symbol >= t.alphabet_size then 0
  else Bigarray.Array1.unsafe_get t.trans ((state * t.alphabet_size) + symbol)

let state_depth t state = Bigarray.Array1.get t.depths state
let state_count t state = Bigarray.Array1.get t.counts state
let state_context_total t state = Bigarray.Array1.get t.ctotals state
let state_parent t state = Bigarray.Array1.get t.parents state

(* --- scorers ------------------------------------------------------------ *)

type scorer = { auto : t; scores : score_table }

let make_scorer auto ~score =
  let scores =
    Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout auto.states
  in
  for s = 0 to auto.states - 1 do
    if s land 1023 = 0 then Deadline.checkpoint ();
    Bigarray.Array1.set scores s (score s)
  done;
  { auto; scores }

let automaton scorer = scorer.auto

(* Safe for the same reason as [step]: [scores] has exactly [states]
   entries ([make_scorer] / [scorer_of_tables]). *)
let state_score scorer state = Bigarray.Array1.unsafe_get scorer.scores state

(* The comparison stays inside this module, on the unboxed table read:
   a float returned across the module boundary would be boxed. *)
let state_alarms scorer state threshold =
  Bigarray.Array1.unsafe_get scorer.scores state >= threshold
let score_table scorer = scorer.scores

(* --- the quiet run ------------------------------------------------------ *)

type cursor = { scorer : scorer; mutable state : int }

(* One table step and one score compare per symbol, on loop parameters:
   the state is written back to the cursor once, where the run stops.
   The table reads are safe for the reasons given at [step]; [k] bounds
   every symbol stepped here, so no symbol takes [step]'s reset. *)
let rec quiet_from c (trans : table) (scores : score_table) k below threshold
    symbols i stop state =
  if i >= stop then begin
    c.state <- state;
    i
  end
  else
    let s = symbols.(i) in
    if s < 0 || s >= below then begin
      c.state <- state;
      i
    end
    else
      let next = Bigarray.Array1.unsafe_get trans ((state * k) + s) in
      if Bigarray.Array1.unsafe_get scores next >= threshold then begin
        c.state <- state;
        i
      end
      else
        quiet_from c trans scores k below threshold symbols (i + 1) stop next

let run_quiet c ~threshold ~below symbols ~pos ~stop =
  let auto = c.scorer.auto in
  quiet_from c auto.trans c.scorer.scores auto.alphabet_size
    (Stdlib.min below auto.alphabet_size)
    threshold symbols pos stop c.state

(* --- reassembly from raw tables (the mmap-load path) -------------------- *)

let transitions t = t.trans
let depths t = t.depths
let counts t = t.counts
let context_totals t = t.ctotals
let parents t = t.parents

let of_tables ~alphabet_size ~depth ~transitions ~depths ~counts
    ~context_totals ~parents =
  let states = Bigarray.Array1.dim depths in
  let fail msg =
    (* lint: allow partiality — validating untrusted input *)
    invalid_arg ("Flat_automaton.of_tables: " ^ msg)
  in
  if alphabet_size < 1 then fail "alphabet_size";
  if depth < 1 then fail "depth";
  if states < 1 then fail "no states";
  if Bigarray.Array1.dim transitions <> states * alphabet_size then
    fail "transition table dimension";
  if
    Bigarray.Array1.dim counts <> states
    || Bigarray.Array1.dim context_totals <> states
    || Bigarray.Array1.dim parents <> states
  then fail "metadata table dimension";
  (* One full pass over the tables: afterwards every stored index is a
     valid state, which is what lets [step]/[state_score] skip bounds
     checks forever after. *)
  for i = 0 to (states * alphabet_size) - 1 do
    if i land 4095 = 0 then Deadline.checkpoint ();
    let target = Bigarray.Array1.get transitions i in
    if target < 0 || target >= states then fail "transition target out of range"
  done;
  for s = 0 to states - 1 do
    if s land 4095 = 0 then Deadline.checkpoint ();
    let d = Bigarray.Array1.get depths s in
    if d < 0 || d > depth then fail "state depth out of range";
    let p = Bigarray.Array1.get parents s in
    if p < 0 || p >= states then fail "parent out of range"
  done;
  {
    alphabet_size;
    depth;
    states;
    trans = transitions;
    depths;
    counts;
    ctotals = context_totals;
    parents;
  }

let scorer_of_tables auto scores =
  if Bigarray.Array1.dim scores <> auto.states then
    (* lint: allow partiality — validating untrusted input *)
    invalid_arg "Flat_automaton.scorer_of_tables: score table dimension";
  for s = 0 to auto.states - 1 do
    if s land 4095 = 0 then Deadline.checkpoint ();
    if not (Float.is_finite (Bigarray.Array1.get scores s)) then
      (* lint: allow partiality — validating untrusted input *)
      invalid_arg "Flat_automaton.scorer_of_tables: non-finite score"
  done;
  { auto; scores }
