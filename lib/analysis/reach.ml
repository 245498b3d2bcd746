let hot_fn_names =
  [ "train"; "train_with"; "score"; "score_range"; "of_trie"; "compile" ]

let task_entries =
  [
    ("Trained", "train");
    ("Scoring", "outcome");
    ("Scoring", "incident_response");
    ("Seq_trie", "of_trace");
    ("Fault_plan", "trip");
    ("Flat_automaton", "compile");
    ("Flat_automaton", "make_scorer");
    ("Quantile", "observe");
    ("Adaptive_threshold", "step");
  ]

let score_fn_names = [ "score"; "score_range"; "compiled_score_range" ]

(* Entries called once per stream symbol, or stepping a run of symbols:
   per-window by definition, so their own bodies are held to R11 too,
   not only their in-loop calls. *)
let per_symbol_entries =
  [
    ("Online", "advance");
    ("Online", "advance_run");
    ("Flat_automaton", "run_quiet");
  ]

let score_entries =
  per_symbol_entries
  @ [
    ("Scoring", "outcome");
    ("Scoring", "incident_response");
    ("Scoring", "outcome_of_response");
    ("Detector", "compiled_score_range");
    ("Flat_automaton", "step");
    ("Flat_automaton", "state_score");
    ("Quantile", "observe");
    ("Adaptive_threshold", "step");
  ]

let in_detectors_dir (fn : Callgraph.fn) =
  let dir = Filename.dirname fn.Callgraph.path in
  dir = "detectors" || Filename.basename dir = "detectors"

let roots_of g ~names ~entries =
  List.filter_map
    (fun (fn : Callgraph.fn) ->
      let id = fn.Callgraph.id in
      if
        (in_detectors_dir fn && List.mem id.Callgraph.fn_name names)
        || List.mem (id.Callgraph.unit_name, id.Callgraph.fn_name) entries
      then Some id
      else None)
    (Callgraph.fns g)

let hot_roots g = roots_of g ~names:hot_fn_names ~entries:task_entries
let score_roots g = roots_of g ~names:score_fn_names ~entries:score_entries
let per_symbol_roots g = roots_of g ~names:[] ~entries:per_symbol_entries

let reachable g ~roots =
  let visited = Hashtbl.create 64 in
  let key (id : Callgraph.fn_id) =
    (id.Callgraph.unit_name, id.Callgraph.fn_name)
  in
  let rec visit id =
    if not (Hashtbl.mem visited (key id)) then begin
      Hashtbl.add visited (key id) ();
      match Callgraph.find g id with
      | None -> ()
      | Some fn ->
          List.iter
            (fun (s : Callgraph.site) ->
              match s.Callgraph.target with
              | Callgraph.Internal id' -> visit id'
              | Callgraph.External _ -> ())
            fn.Callgraph.sites
    end
  in
  List.iter visit roots;
  List.filter
    (fun (fn : Callgraph.fn) -> Hashtbl.mem visited (key fn.Callgraph.id))
    (Callgraph.fns g)
