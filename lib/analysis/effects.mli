(** Per-function effect inference with fixpoint propagation over the
    call graph — the facts behind R9/R10/R11.

    All fixpoints iterate the graph's sorted node list, so the results
    (and therefore diagnostic order) are independent of discovery
    order. *)

val reaches_checkpoint : Callgraph.t -> Callgraph.fn_id -> bool
(** Least fixpoint: a node reaches a checkpoint when it calls
    [Deadline.checkpoint] directly or some internal callee does. *)

val guarded : Callgraph.t -> hot:Callgraph.fn list -> Callgraph.fn_id -> bool
(** Greatest fixpoint over the hot set: a node stays guarded while it
    reaches a checkpoint itself, or while every hot caller of it is
    still guarded (a caller that checkpoints around its calls bounds
    the work its callees do between checkpoints).  A node that neither
    reaches a checkpoint nor has any guarded hot caller is unguarded —
    R9 flags it if it loops. *)

val per_window :
  Callgraph.t ->
  score:Callgraph.fn list ->
  seeds:Callgraph.fn_id list ->
  Callgraph.fn_id ->
  bool
(** Nodes that run once per scored window: the closure over internal
    callees of [seeds] (entries per-window by definition, such as the
    per-symbol {!Reach.per_symbol_roots}) and of the in-loop call
    sites of the score set.  Any allocation inside such a node is a
    per-window allocation (R11). *)

val raisable : hot:Callgraph.fn list -> (string * (string * int * int)) list
(** Exception constructors raisable anywhere in the hot set, sorted by
    name, each with its lexicographically first example site
    (path, line, col) — the input to the R10 custody check. *)
