open Seqdiv_util

type node = {
  mutable count : int;
  mutable ctotal : int;
      (* occurrences of this prefix that continued one symbol deeper —
         the Markov denominator sum(children counts), maintained
         incrementally so context lookups stay O(1) *)
  children : node option array;
}

type t = {
  alphabet_size : int;
  max_len : int;
  root : node;
  totals : int array;  (* windows recorded per length, index = len - 1 *)
  mutable nodes : int;
  distincts : int array;  (* distinct sequences per length *)
}

let new_node k = { count = 0; ctotal = 0; children = Array.make k None }

let create ~alphabet_size ~max_len =
  assert (alphabet_size >= 1);
  assert (max_len >= 1);
  {
    alphabet_size;
    max_len;
    root = new_node alphabet_size;
    totals = Array.make max_len 0;
    nodes = 1;
    distincts = Array.make max_len 0;
  }

let max_len t = t.max_len
let alphabet_size t = t.alphabet_size

let child t node symbol =
  assert (symbol >= 0 && symbol < t.alphabet_size);
  match node.children.(symbol) with
  | Some c -> c
  | None ->
      let c = new_node t.alphabet_size in
      node.children.(symbol) <- Some c;
      t.nodes <- t.nodes + 1;
      c

(* One occurrence, with multiplicity [count], of the slice
   [a.(pos) .. a.(pos + len - 1)] and of each of its prefixes. *)
let add_many_at t a ~pos ~len ~count =
  assert (len >= 1 && len <= t.max_len);
  assert (pos >= 0 && pos + len <= Array.length a);
  assert (count > 0);
  let node = ref t.root in
  for d = 0 to len - 1 do
    let c = child t !node a.(pos + d) in
    if c.count = 0 then t.distincts.(d) <- t.distincts.(d) + 1;
    c.count <- c.count + count;
    (!node).ctotal <- (!node).ctotal + count;
    t.totals.(d) <- t.totals.(d) + count;
    node := c
  done

(* Every n-gram of one trace, up to [max_len]: each start position
   records its run of at most [max_len] symbols, stopping at the trace's
   end, so no n-gram reaches into the next trace. *)
let record_trace t trace =
  let data = Trace.raw trace in
  let len = Array.length data in
  for pos = 0 to len - 1 do
    (* Cooperative watchdog hook (no-op unless a deadline is armed):
       a trace scan is the longest single loop in a train phase. *)
    if pos land 4095 = 0 then Deadline.checkpoint ();
    add_many_at t data ~pos ~len:(Stdlib.min t.max_len (len - pos)) ~count:1
  done

let of_traces ~max_len traces =
  let k =
    List.fold_left
      (fun acc trace -> Stdlib.max acc (Alphabet.size (Trace.alphabet trace)))
      1 traces
  in
  let t = create ~alphabet_size:k ~max_len in
  List.iter (record_trace t) traces;
  t

let of_trace ~max_len trace = of_traces ~max_len [ trace ]

(* --- cursor/descent API over raw symbol slices -------------------------- *)

(* The scoring hot path: descend [len] symbols from the root without
   allocating.  The descent functions take every parameter explicitly —
   a local [let rec] capturing [t]/[a]/[pos]/[len] would allocate a
   closure on each call, which is most of what this module exists to
   avoid.  [descend_at] returns [None] when the path is absent or a
   symbol is outside the alphabet; [count_descend] is the option-free
   variant so count/membership probes allocate nothing at all. *)
let rec descend_at k a pos len node i =
  if i = len then Some node
  else
    let symbol = a.(pos + i) in
    if symbol < 0 || symbol >= k then None
    else
      match node.children.(symbol) with
      | None -> None
      | Some c -> descend_at k a pos len c (i + 1)

let rec count_descend k a pos len node i =
  if i = len then node.count
  else
    let symbol = a.(pos + i) in
    if symbol < 0 || symbol >= k then 0
    else
      match node.children.(symbol) with
      | None -> 0
      | Some c -> count_descend k a pos len c (i + 1)

let find_at t a ~pos ~len =
  assert (len >= 1 && len <= t.max_len);
  assert (pos >= 0 && pos + len <= Array.length a);
  descend_at t.alphabet_size a pos len t.root 0

let count_at t a ~pos ~len =
  assert (len >= 1 && len <= t.max_len);
  assert (pos >= 0 && pos + len <= Array.length a);
  count_descend t.alphabet_size a pos len t.root 0

let mem_at t a ~pos ~len = count_at t a ~pos ~len > 0

let total t n =
  assert (n >= 1 && n <= t.max_len);
  t.totals.(n - 1)

let is_rare_at t ~threshold a ~pos ~len =
  let c = count_at t a ~pos ~len in
  c > 0 && float_of_int c /. float_of_int (total t len) < threshold

(* Markov support: the conditional-count row of a context slice.  The
   context node's [ctotal] is exactly the number of occurrences that
   continued — the denominator of P(next | context). *)
let context_at t a ~pos ~len =
  match find_at t a ~pos ~len with
  | Some node when node.ctotal > 0 -> Some node
  | Some _ | None -> None

let context_total node = node.ctotal

(* Compiler support ({!Flat_automaton}): a read-only walk over the node
   graph.  [child_node] never creates nodes (unlike the internal
   [child] used by the recording paths). *)
let root t = t.root
let occurrences node = node.count

let child_node t node symbol =
  assert (symbol >= 0 && symbol < t.alphabet_size);
  node.children.(symbol)

let continuation_count t node symbol =
  assert (symbol >= 0 && symbol < t.alphabet_size);
  match node.children.(symbol) with None -> 0 | Some c -> c.count

let distinct t n =
  assert (n >= 1 && n <= t.max_len);
  t.distincts.(n - 1)

let node_count t = t.nodes

(* --- depth-slice traversal ---------------------------------------------- *)

(* In-order walk of every distinct sequence at one depth: children are
   visited in ascending symbol order, so the traversal is ascending in
   lexicographic order — deterministic without any sort.  [f] receives the symbol buffer (valid up to [depth], reused
   between calls) and the occurrence count. *)
let iter_slice t ~depth f =
  assert (depth >= 1 && depth <= t.max_len);
  let buf = Array.make depth 0 in
  let rec walk node d =
    if d = depth then f buf node.count
    else
      Array.iteri
        (fun symbol c ->
          match c with
          | None -> ()
          | Some c ->
              buf.(d) <- symbol;
              walk c (d + 1))
        node.children
  in
  walk t.root 0

let iter_contexts t ~depth f =
  assert (depth >= 1 && depth < t.max_len);
  let buf = Array.make depth 0 in
  let rec walk node d =
    if d = depth then begin if node.ctotal > 0 then f buf node end
    else
      Array.iteri
        (fun symbol c ->
          match c with
          | None -> ()
          | Some c ->
              buf.(d) <- symbol;
              walk c (d + 1))
        node.children
  in
  walk t.root 0

let pp_stats ppf t =
  Format.fprintf ppf "trie{max_len=%d nodes=%d distinct=[%s]}" t.max_len
    t.nodes
    (String.concat ";"
       (List.init t.max_len (fun i -> string_of_int t.distincts.(i))))
