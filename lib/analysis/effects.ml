let key (id : Callgraph.fn_id) =
  (id.Callgraph.unit_name, id.Callgraph.fn_name)

(* Only applied calls ([args >= 1]) count as edges here: a bare
   reference — most often a punned record field that happens to share
   a top-level binding's name — reads a value, it does not run the
   function, and following it would drag module-init constants into
   the per-window set. *)
let internal_callees (fn : Callgraph.fn) =
  List.filter_map
    (fun (s : Callgraph.site) ->
      match s.Callgraph.target with
      | Callgraph.Internal id when s.Callgraph.args >= 1 -> Some id
      | Callgraph.Internal _ | Callgraph.External _ -> None)
    fn.Callgraph.sites

let reaches_checkpoint g =
  let reaches = Hashtbl.create 64 in
  List.iter
    (fun (fn : Callgraph.fn) ->
      let id = fn.Callgraph.id in
      if
        fn.Callgraph.checkpoints
        || (id.Callgraph.unit_name = "Deadline"
           && id.Callgraph.fn_name = "checkpoint")
      then Hashtbl.replace reaches (key id) ())
    (Callgraph.fns g);
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (fn : Callgraph.fn) ->
        if not (Hashtbl.mem reaches (key fn.Callgraph.id)) then
          if
            List.exists
              (fun id -> Hashtbl.mem reaches (key id))
              (internal_callees fn)
          then begin
            Hashtbl.replace reaches (key fn.Callgraph.id) ();
            changed := true
          end)
      (Callgraph.fns g)
  done;
  fun id -> Hashtbl.mem reaches (key id)

let guarded g ~hot =
  let reaches = reaches_checkpoint g in
  let hot_keys = List.map (fun (f : Callgraph.fn) -> key f.Callgraph.id) hot in
  (* Hot predecessors of each hot node. *)
  let preds_of (f : Callgraph.fn) =
    List.filter
      (fun (p : Callgraph.fn) ->
        List.exists
          (fun id -> key id = key f.Callgraph.id)
          (internal_callees p))
      hot
  in
  let in_g = Hashtbl.create 64 in
  List.iter (fun k -> Hashtbl.replace in_g k true) hot_keys;
  let member (f : Callgraph.fn) =
    match Hashtbl.find_opt in_g (key f.Callgraph.id) with
    | Some b -> b
    | None -> false
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (f : Callgraph.fn) ->
        if member f && not (reaches f.Callgraph.id) then begin
          let preds = preds_of f in
          let unguarded_pred = List.exists (fun p -> not (member p)) preds in
          if preds = [] || unguarded_pred then begin
            Hashtbl.replace in_g (key f.Callgraph.id) false;
            changed := true
          end
        end)
      hot
  done;
  fun id ->
    match Hashtbl.find_opt in_g (key id) with Some b -> b | None -> false

let per_window g ~score ~seeds =
  let marked = Hashtbl.create 64 in
  let rec visit id =
    if not (Hashtbl.mem marked (key id)) then begin
      Hashtbl.add marked (key id) ();
      match Callgraph.find g id with
      | None -> ()
      | Some fn -> List.iter visit (internal_callees fn)
    end
  in
  List.iter visit seeds;
  List.iter
    (fun (fn : Callgraph.fn) ->
      List.iter
        (fun (s : Callgraph.site) ->
          match s.Callgraph.target with
          | Callgraph.Internal id
            when s.Callgraph.in_loop && s.Callgraph.args >= 1 ->
              visit id
          | Callgraph.Internal _ | Callgraph.External _ -> ())
        fn.Callgraph.sites)
    score;
  fun id -> Hashtbl.mem marked (key id)

let raisable ~hot =
  let all =
    List.concat_map
      (fun (fn : Callgraph.fn) ->
        List.map
          (fun (r : Callgraph.raised) ->
            let p = r.Callgraph.raise_loc.Location.loc_start in
            ( r.Callgraph.exn_name,
              ( fn.Callgraph.path,
                p.Lexing.pos_lnum,
                p.Lexing.pos_cnum - p.Lexing.pos_bol ) ))
          fn.Callgraph.raises)
      hot
  in
  let sorted = List.sort compare all in
  let rec first_of_each = function
    | [] -> []
    | (exn, site) :: rest ->
        let rest' =
          List.filter (fun (e, _) -> e <> exn) rest
        in
        (exn, site) :: first_of_each rest'
  in
  first_of_each sorted
