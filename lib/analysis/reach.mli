(** Reachability over the call graph, rooted at the entry points the
    whole-program rules care about.

    The roots are declarative because the engine dispatches detectors
    through first-class modules, which a syntactic call graph cannot
    see: detector-directory bindings named [train]/[train_with]/
    [score]/[score_range]/[of_trie]/[compile] are hot roots by decree,
    alongside the named supervised-task entries in [lib/core], the
    shared-trie builder and the flat-automaton compiler.  The compiled
    scoring path ([Flat_automaton.step]/[state_score] and the shared
    [Detector.compiled_score_range] loop) is rooted in the R11 score
    set, so the fast path is provably allocation-free; so are the
    serve layer's per-symbol entries: [Online.advance],
    [Online.advance_run] and the quiet-run kernel
    [Flat_automaton.run_quiet].  See docs/LINTING.md for the full list
    and rationale. *)

val hot_roots : Callgraph.t -> Callgraph.fn_id list
(** Entry points of train/score hot paths and supervised tasks. *)

val score_roots : Callgraph.t -> Callgraph.fn_id list
(** Entry points of the per-window scoring paths only (R11). *)

val per_symbol_roots : Callgraph.t -> Callgraph.fn_id list
(** The score entries that run once per stream symbol or step a run of
    them ([Online.advance], [Online.advance_run],
    [Flat_automaton.run_quiet]): per-window by definition (R11). *)

val reachable :
  Callgraph.t -> roots:Callgraph.fn_id list -> Callgraph.fn list
(** All graph nodes reachable from [roots] through internal call
    sites (including the roots themselves), in the graph's sorted
    order.  Roots that name no node are ignored. *)
