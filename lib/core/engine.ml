open Seqdiv_util
open Seqdiv_stream
open Seqdiv_detectors
open Seqdiv_synth

let src = Logs.Src.create "seqdiv.engine" ~doc:"Plan/execute experiment engine"

module Log = (val Logs.src_log src)

type stats = {
  train_executed : int;
  train_cached : int;
  score_tasks : int;
  train_seconds : float;
  score_seconds : float;
  tries_built : int;
  trie_hits : int;
  trie_nodes : int;
  faults_injected : int;
  retries : int;
  cells_failed : int;
  cells_timed_out : int;
  cells_resumed : int;
  automata_built : int;
  automata_hits : int;
}

let zero_stats =
  {
    train_executed = 0;
    train_cached = 0;
    score_tasks = 0;
    train_seconds = 0.0;
    score_seconds = 0.0;
    tries_built = 0;
    trie_hits = 0;
    trie_nodes = 0;
    faults_injected = 0;
    retries = 0;
    cells_failed = 0;
    cells_timed_out = 0;
    cells_resumed = 0;
    automata_built = 0;
    automata_hits = 0;
  }

type key = string * int * int64

type t = {
  pool : Pool.t;
  clock : unit -> float;
  retries : int;
      (* extra executions granted to a transient-faulted task, beyond
         its first attempt *)
  fault_plan : Fault_plan.t option;
  deadline : Deadline.spec option;
      (* armed afresh around every supervised task execution (and every
         trie build): a task that checkpoints past the budget degrades
         to a Timeout fault instead of stalling the run *)
  compile : bool;
      (* attach compiled flat-automaton scorers to trained models as
         they are committed to the cache *)
  cache : (key, Trained.t) Hashtbl.t;
  tries : (int64, Seq_trie.t) Hashtbl.t;
      (* fingerprint -> deepest trie built for that training trace;
         every trie-capable (detector, window) model is a view of it *)
  autos : (int64 * int, Flat_automaton.t) Hashtbl.t;
      (* (fingerprint, window) -> compiled automaton; detectors sharing
         a training trace and window share the transition table and
         differ only in their per-state score tables *)
  mutable fingerprints : (Trace.t * int64) list;
      (* physical-equality memo: the same training trace is
         fingerprinted once per engine, not once per task *)
  mutable stats : stats;
}

let create ?(clock = fun () -> 0.0) ?(jobs = 1) ?(retries = 2) ?fault_plan
    ?deadline ?(compile = false) () =
  {
    pool = Pool.create ~jobs ();
    clock;
    retries = Stdlib.max 0 retries;
    fault_plan;
    deadline;
    compile;
    cache = Hashtbl.create 64;
    tries = Hashtbl.create 8;
    autos = Hashtbl.create 8;
    fingerprints = [];
    stats = zero_stats;
  }

let default = function Some e -> e | None -> create ()
let jobs t = Pool.jobs t.pool
let compiles t = t.compile
let pool t = t.pool
let retries (t : t) = t.retries
let fault_plan t = t.fault_plan
let deadline t = t.deadline
let stats t = t.stats
let reset_stats t = t.stats <- zero_stats

let pp_stats ppf s =
  Format.fprintf ppf
    "engine: trained %d model(s) (%d cache hit(s)) in %.3fs; scored %d \
     cell(s) in %.3fs; %d trie(s) built (%d node(s), %d view hit(s)); \
     supervision: %d fault(s) injected, %d retry(ies), %d cell(s) failed \
     (%d timed out), %d cell(s) resumed; %d automaton(s) compiled (%d \
     shared)"
    s.train_executed s.train_cached s.train_seconds s.score_tasks
    s.score_seconds s.tries_built s.trie_nodes s.trie_hits s.faults_injected
    s.retries s.cells_failed s.cells_timed_out s.cells_resumed
    s.automata_built s.automata_hits

(* Arm the engine's deadline (when configured) around one task body.
   Worker domains execute one task at a time, so the ambient
   domain-local deadline is exactly this task's watchdog. *)
let armed t f =
  match t.deadline with
  | None -> f ()
  | Some spec -> Deadline.with_deadline spec f

(* --- cache keys -------------------------------------------------------- *)

let compute_fingerprint trace =
  (* FNV-1a over the length and every symbol. *)
  let h = ref (Hash.fnv_int Hash.fnv_basis (Trace.length trace)) in
  for i = 0 to Trace.length trace - 1 do
    h := Hash.fnv_int !h (Trace.get trace i)
  done;
  !h

let max_fingerprint_memo = 8

let fingerprint t trace =
  match List.find_opt (fun (tr, _) -> tr == trace) t.fingerprints with
  | Some (_, fp) -> fp
  | None ->
      let fp = compute_fingerprint trace in
      let keep =
        if List.length t.fingerprints >= max_fingerprint_memo then
          List.filteri (fun i _ -> i < max_fingerprint_memo - 1) t.fingerprints
        else t.fingerprints
      in
      t.fingerprints <- (trace, fp) :: keep;
      fp

let key t (module D : Detector.S) ~window trace : key =
  (D.name, window, fingerprint t trace)

(* --- task supervision --------------------------------------------------- *)

(* Chaos-plan task keys are content fingerprints (FNV-1a over what the
   task computes), never positional indices: the same task hashes the
   same at every jobs count, in every scheduling order, and across
   [--resume], so a seeded fault plan trips an identical task set in
   every execution of the same grid. *)

let train_task_key ((name, window, fp) : key) =
  let open Hash in
  fnv_int64 (fnv_int (fnv_string (fnv_int fnv_basis 1) name) window) fp

let score_task_key (trained, inj) =
  let open Hash in
  let h = fnv_int fnv_basis 2 in
  let h = fnv_string h (Trained.name trained) in
  let h = fnv_int h (Trained.window trained) in
  let h = fnv_int h inj.Injector.position in
  Array.fold_left fnv_int
    (fnv_int h (Array.length inj.Injector.anomaly))
    inj.Injector.anomaly

(* The task supervisor.  Executes keyed pure thunks on [pool] with
   per-task isolation, classifies every captured exception
   ({!Fault.classify}), re-runs transient failures up to the engine's
   retry budget, and returns per-task results in input order.  The
   retry loop runs on the calling domain; each round is one
   order-preserving [Pool.map_result] batch over the still-failing
   indices, so the outcome is deterministic whatever the domain
   scheduling.  Retry counts land in the stats (and in each fault's
   [attempts]) — never in any PRNG state. *)
let supervised_thunks t pool tasks =
  let arr = Array.of_list tasks in
  let n = Array.length arr in
  let results = Array.make n None in
  let rec rounds attempt pending =
    if pending <> [] then begin
      let outs =
        Pool.map_result pool
          (fun i ->
            let key, thunk = arr.(i) in
            (* The chaos trip runs *inside* the armed deadline: a
               hang-fated task spins on checkpoints until the watchdog
               fires, just as a genuinely hung detector loop would. *)
            armed t (fun () ->
                (match t.fault_plan with
                | Some plan -> Fault_plan.trip plan ~key ~attempt
                | None -> ());
                thunk ()))
          pending
      in
      (* Every task the plan fates this attempt counts as injected,
         whether it raised [Fault.Injected] or hung until its deadline
         fired.  [decide] is pure, so asking again here is exact. *)
      let injected =
        match t.fault_plan with
        | None -> 0
        | Some plan ->
            List.length
              (List.filter
                 (fun i ->
                   Fault_plan.decide plan ~key:(fst arr.(i)) ~attempt <> None)
                 pending)
      in
      let again =
        List.concat
          (List.map2
             (fun i out ->
               match out with
               | Ok v ->
                   results.(i) <- Some (Ok v);
                   []
               | Error { Pool.exn; backtrace; _ } ->
                   if Fault.classify exn = Fault.Transient && attempt < t.retries
                   then [ i ]
                   else begin
                     results.(i) <-
                       Some (Error (Fault.of_exn ~attempts:(attempt + 1) exn backtrace));
                     []
                   end)
             pending outs)
      in
      t.stats <-
        {
          t.stats with
          faults_injected = t.stats.faults_injected + injected;
          retries = t.stats.retries + List.length again;
        };
      if again <> [] then
        Log.debug (fun m ->
            m "supervisor: retrying %d transient failure(s) (attempt %d/%d)"
              (List.length again) (attempt + 2) (t.retries + 1));
      rounds (attempt + 1) again
    end
  in
  rounds 0 (List.init n Fun.id);
  Array.to_list
    (Array.map
       (function
         | Some r -> r
         | None ->
             (* lint: allow partiality — supervisor fill invariant *)
             invalid_arg "Engine.supervised_thunks: unfilled result slot")
       results)

(* --- shared-trie plan --------------------------------------------------- *)

(* One trie per training trace serves every trie-capable
   (detector, window) model as a cheap width-slice view.  The cache
   keeps the deepest trie built so far for a fingerprint; a shallower
   request is a hit, a deeper one rebuilds (and the deeper trie then
   serves everything the old one did). *)
let obtain_trie t fp trace ~max_len =
  match Hashtbl.find_opt t.tries fp with
  | Some trie when Seq_trie.max_len trie >= max_len -> (trie, false)
  | Some _ | None ->
      let trie = Seq_trie.of_trace ~max_len trace in
      Hashtbl.replace t.tries fp trie;
      t.stats <-
        {
          t.stats with
          tries_built = t.stats.tries_built + 1;
          trie_nodes = t.stats.trie_nodes + Seq_trie.node_count trie;
        };
      (trie, true)

let train_miss t d ~window trace fp =
  if Trained.trie_capable d then begin
    let trie, built = obtain_trie t fp trace ~max_len:window in
    if not built then
      t.stats <- { t.stats with trie_hits = t.stats.trie_hits + 1 };
    match Trained.train_of_trie d trie ~window with
    | Some trained -> trained
    | None -> Trained.train d ~window trace
  end
  else Trained.train d ~window trace

(* Compiled fast path (opt-in): attach a flat-automaton scorer to a
   freshly trained model as it is committed to the cache.  Detectors
   trained on the same trace at the same window share one automaton
   (the transition table depends only on the trie slice, not on the
   similarity metric); only the per-state score table is per-detector.
   Attachment runs on the calling domain, outside any armed deadline —
   like cache commits themselves, it is engine bookkeeping, not a
   supervised task — so chaos/deadline behaviour is unchanged. *)
let attach_scorer t fp trained =
  if not t.compile then trained
  else begin
    let akey = (fp, Trained.window trained) in
    let cached = Hashtbl.find_opt t.autos akey in
    match Trained.compile ?automaton:cached trained with
    | None -> trained
    | Some scorer ->
        let auto = Flat_automaton.automaton scorer in
        (match cached with
        | Some shared when shared == auto ->
            t.stats <-
              { t.stats with automata_hits = t.stats.automata_hits + 1 }
        | Some _ | None ->
            Hashtbl.replace t.autos akey auto;
            t.stats <-
              { t.stats with automata_built = t.stats.automata_built + 1 });
        Trained.with_scorer trained scorer
  end

(* --- train phase ------------------------------------------------------- *)

let train t d ~window trace =
  let k = key t d ~window trace in
  match Hashtbl.find_opt t.cache k with
  | Some trained ->
      t.stats <- { t.stats with train_cached = t.stats.train_cached + 1 };
      trained
  | None ->
      let t0 = t.clock () in
      let _, _, fp = k in
      let trained = attach_scorer t fp (train_miss t d ~window trace fp) in
      Hashtbl.add t.cache k trained;
      t.stats <-
        {
          t.stats with
          train_executed = t.stats.train_executed + 1;
          train_seconds = t.stats.train_seconds +. (t.clock () -. t0);
        };
      trained

let train_batch_result t specs =
  (* Plan: resolve keys serially, keep the first spec of every
     cache-missing key.  Execute: train the misses under supervision on
     the pool, commit the successes on the calling domain, answer every
     spec from the cache (or with the fault that kept it out). *)
  let keyed =
    List.map (fun (d, window, trace) -> (key t d ~window trace, d, window, trace)) specs
  in
  let misses =
    List.fold_left
      (fun acc (k, d, window, trace) ->
        if Hashtbl.mem t.cache k || List.exists (fun (k', _, _, _) -> k' = k) acc
        then acc
        else (k, d, window, trace) :: acc)
      [] keyed
    |> List.rev
  in
  let t0 = t.clock () in
  let trie_misses =
    List.filter (fun (_, d, _, _) -> Trained.trie_capable d) misses
  in
  (* Shared-trie plan: one trie per distinct training trace, deep
     enough for every trie-capable miss that shares it; the whole
     (window x detector) grid then trains from one trace scan. *)
  let upsert groups fp trace window =
    let rec go = function
      | [] -> [ (fp, (trace, window)) ]
      | (fp', (tr, w)) :: rest when Int64.equal fp' fp ->
          (fp', (tr, Stdlib.max w window)) :: rest
      | g :: rest -> g :: go rest
    in
    go groups
  in
  let groups =
    List.fold_left
      (fun acc ((_, _, fp), _, window, trace) -> upsert acc fp trace window)
      [] trie_misses
  in
  let needs_build =
    List.filter
      (fun (fp, (_, maxw)) ->
        match Hashtbl.find_opt t.tries fp with
        | Some trie -> Seq_trie.max_len trie < maxw
        | None -> true)
      groups
  in
  (* Trie construction is isolated but not chaos-injected (the plan
     targets train/score tasks): a genuinely crashed build degrades
     every dependent model below instead of poisoning the batch. *)
  let built =
    Pool.map_result t.pool
      (fun (_, (trace, maxw)) ->
        armed t (fun () -> Seq_trie.of_trace ~max_len:maxw trace))
      needs_build
  in
  let trie_faults = Hashtbl.create 4 in
  let built_ok = ref 0 in
  List.iter2
    (fun (fp, _) result ->
      match result with
      | Ok trie ->
          Hashtbl.replace t.tries fp trie;
          incr built_ok;
          t.stats <-
            {
              t.stats with
              trie_nodes = t.stats.trie_nodes + Seq_trie.node_count trie;
            }
      | Error { Pool.exn; backtrace; _ } ->
          Hashtbl.replace trie_faults fp (Fault.of_exn ~attempts:1 exn backtrace))
    needs_build built;
  t.stats <-
    {
      t.stats with
      tries_built = t.stats.tries_built + !built_ok;
      trie_hits =
        t.stats.trie_hits + List.length trie_misses - List.length needs_build;
    };
  (* Every miss that a failed trie build did not poison trains in one
     supervised batch on the pool, from the shared trie when the
     detector can.  Largest window first: the costliest models (nn at
     the widest window) start at once instead of last, when they would
     leave the other domains idle.  Results are committed and answered
     by key, so the order is invisible outside the pool. *)
  let healthy, poisoned =
    List.partition
      (fun ((_, _, fp), d, _, _) ->
        not (Trained.trie_capable d && Hashtbl.mem trie_faults fp))
      misses
  in
  let healthy =
    List.stable_sort (fun (_, _, w, _) (_, _, w', _) -> Int.compare w' w) healthy
  in
  let results =
    supervised_thunks t t.pool
      (List.map
         (fun ((_, _, fp) as k, d, window, trace) ->
           let trie = Hashtbl.find_opt t.tries fp in
           ( train_task_key k,
             fun () ->
               match
                 Option.bind trie (fun trie -> Trained.train_of_trie d trie ~window)
               with
               | Some trained -> trained
               | None -> Trained.train d ~window trace ))
         healthy)
  in
  let miss_faults = Hashtbl.create 4 in
  List.iter2
    (fun (((_, _, fp) as k), _, _, _) result ->
      match result with
      | Ok trained -> Hashtbl.add t.cache k (attach_scorer t fp trained)
      | Error fault -> Hashtbl.replace miss_faults k fault)
    healthy results;
  List.iter
    (fun (((_, _, fp) as k), _, _, _) ->
      match Hashtbl.find_opt trie_faults fp with
      | Some fault -> Hashtbl.replace miss_faults k fault
      | None -> ())
    poisoned;
  let dt = t.clock () -. t0 in
  let executed = List.length misses in
  let failed = Hashtbl.length miss_faults in
  t.stats <-
    {
      t.stats with
      train_executed = t.stats.train_executed + executed;
      train_cached = t.stats.train_cached + List.length specs - executed;
      train_seconds = t.stats.train_seconds +. dt;
    };
  Log.debug (fun m ->
      m
        "train phase: %d task(s), %d trained, %d from cache, %d failed, \
         %.3fs (%d job(s))"
        (List.length specs) executed
        (List.length specs - executed)
        failed dt (Pool.jobs t.pool));
  List.map
    (fun (k, _, _, _) ->
      match Hashtbl.find_opt t.cache k with
      | Some trained -> Ok trained
      | None -> (
          match Hashtbl.find_opt miss_faults k with
          | Some fault -> Error fault
          | None ->
              (* lint: allow partiality — every miss commits or faults *)
              invalid_arg "Engine.train_batch_result: unresolved spec"))
    keyed

let train_batch t specs =
  List.map
    (function
      | Ok trained -> trained
      | Error fault -> raise (Fault.Error fault))
    (train_batch_result t specs)

(* --- score phase ------------------------------------------------------- *)

let score_batch t tasks =
  let t0 = t.clock () in
  let results =
    supervised_thunks t t.pool
      (List.map
         (fun ((trained, inj) as task) ->
           (score_task_key task, fun () -> Scoring.outcome trained inj))
         tasks)
  in
  let failed = ref 0 in
  let timed_out = ref 0 in
  let outcomes =
    List.map
      (function
        | Ok outcome -> outcome
        | Error fault ->
            incr failed;
            if fault.Fault.severity = Fault.Timeout then incr timed_out;
            Outcome.Failed fault)
      results
  in
  let dt = t.clock () -. t0 in
  t.stats <-
    {
      t.stats with
      score_tasks = t.stats.score_tasks + List.length tasks;
      score_seconds = t.stats.score_seconds +. dt;
      cells_failed = t.stats.cells_failed + !failed;
      cells_timed_out = t.stats.cells_timed_out + !timed_out;
    };
  Log.debug (fun m ->
      m "score phase: %d cell(s), %d failed, %.3fs (%d job(s))"
        (List.length tasks) !failed dt (Pool.jobs t.pool));
  outcomes

(* --- whole-experiment plans -------------------------------------------- *)

(* One detector's cells in the row-major order of
   [Performance_map.build]. *)
let cells suite =
  let windows = Suite.windows suite in
  List.concat_map
    (fun anomaly_size -> List.map (fun window -> (anomaly_size, window)) windows)
    (Suite.anomaly_sizes suite)

let assemble_map suite ~detector outcomes =
  let anomaly_sizes = Array.of_list (Suite.anomaly_sizes suite) in
  let windows = Array.of_list (Suite.windows suite) in
  let index_of a v =
    let n = Array.length a in
    let rec go i = if i >= n || a.(i) = v then i else go (i + 1) in
    go 0
  in
  Performance_map.build ~detector
    ~anomaly_sizes:(Suite.anomaly_sizes suite)
    ~windows:(Suite.windows suite)
    ~f:(fun ~anomaly_size ~window ->
      outcomes.((index_of anomaly_sizes anomaly_size * Array.length windows)
                + index_of windows window))

let maps_over ?journal t suite ~injection detectors =
  let windows = Suite.windows suite in
  let seed = suite.Suite.params.Suite.seed in
  (* Plan per detector: resolve every cell against the journal first —
     a hit is a finished cell a resumed run never re-executes. *)
  let plans =
    List.map
      (fun d ->
        let (module D : Detector.S) = d in
        let resolved =
          List.map
            (fun (anomaly_size, window) ->
              let hit =
                match journal with
                | None -> None
                | Some j ->
                    Journal.lookup j ~seed ~detector:D.name ~window
                      ~anomaly_size
              in
              ((anomaly_size, window), hit))
            (cells suite)
        in
        let pending_windows =
          List.filter
            (fun w ->
              List.exists
                (fun ((_, w'), hit) -> w' = w && Option.is_none hit)
                resolved)
            windows
        in
        (d, resolved, pending_windows))
      detectors
  in
  let train_specs =
    List.concat_map
      (fun (d, _, pending) ->
        List.map (fun w -> (d, w, suite.Suite.training)) pending)
      plans
  in
  let train_results = ref (train_batch_result t train_specs) in
  let take n =
    let rec go n acc rest =
      if n = 0 then (List.rev acc, rest)
      else
        match rest with
        | x :: rest -> go (n - 1) (x :: acc) rest
        | [] ->
            (* lint: allow partiality — one result per train spec *)
            invalid_arg "Engine.maps_over: train phase arity mismatch"
    in
    let taken, rest = go n [] !train_results in
    train_results := rest;
    taken
  in
  (* Execute detector by detector: injections resolve serially on the
     calling domain (the callback may consume PRNG state), each
     detector's missing cells score as one supervised batch, and the
     journal — when present — flushes after every detector, so a killed
     run loses at most one detector's worth of scoring. *)
  List.map
    (fun (d, resolved, pending_windows) ->
      let (module D : Detector.S) = d in
      let trained_at = List.combine pending_windows (take (List.length pending_windows)) in
      let slots =
        List.map
          (fun ((anomaly_size, window), hit) ->
            match hit with
            | Some outcome -> `Journalled outcome
            | None -> (
                let inj = injection ~anomaly_size ~window in
                match List.assoc_opt window trained_at with
                | Some (Ok trained) -> `Run (trained, inj)
                | Some (Error fault) -> `Train_failed fault
                | None ->
                    (* pending windows cover every non-journalled cell *)
                    (* lint: allow partiality — plan arity invariant *)
                    invalid_arg "Engine.maps_over: untrained window"))
          resolved
      in
      let scored =
        ref
          (score_batch t
             (List.filter_map
                (function `Run task -> Some task | _ -> None)
                slots))
      in
      let resumed = ref 0 in
      let train_failed = ref 0 in
      let train_timed_out = ref 0 in
      let outcomes =
        List.map
          (fun slot ->
            match slot with
            | `Journalled outcome ->
                incr resumed;
                outcome
            | `Train_failed fault ->
                incr train_failed;
                if fault.Fault.severity = Fault.Timeout then
                  incr train_timed_out;
                Outcome.Failed fault
            | `Run _ -> (
                match !scored with
                | outcome :: rest ->
                    scored := rest;
                    outcome
                | [] ->
                    (* lint: allow partiality — one outcome per task *)
                    invalid_arg "Engine.maps_over: score phase arity mismatch"))
          slots
      in
      t.stats <-
        {
          t.stats with
          cells_resumed = t.stats.cells_resumed + !resumed;
          cells_failed = t.stats.cells_failed + !train_failed;
          cells_timed_out = t.stats.cells_timed_out + !train_timed_out;
        };
      (match journal with
      | None -> ()
      | Some j ->
          List.iter2
            (fun ((anomaly_size, window), _) (slot, outcome) ->
              match (slot, outcome) with
              | `Run _, Outcome.Failed _ -> () (* retried on next resume *)
              | `Run _, outcome ->
                  Journal.record j
                    {
                      Journal.seed;
                      detector = D.name;
                      window;
                      anomaly_size;
                      outcome;
                    }
              | (`Journalled _ | `Train_failed _), _ -> ())
            resolved
            (List.combine slots outcomes);
          Journal.flush j);
      assemble_map suite ~detector:D.name (Array.of_list outcomes))
    plans

let performance_map_over t suite ~injection d =
  match maps_over t suite ~injection [ d ] with
  | [ m ] -> m
  | _ ->
      (* Unreachable: one detector in, one map out. *)
      (* lint: allow partiality — arity invariant *)
      invalid_arg "Engine.performance_map_over: plan arity mismatch"

let suite_injection suite ~anomaly_size ~window =
  (Suite.stream suite ~anomaly_size ~window).Suite.injection

let performance_map ?journal t suite d =
  match maps_over ?journal t suite ~injection:(suite_injection suite) [ d ] with
  | [ m ] -> m
  | _ ->
      (* lint: allow partiality — arity invariant *)
      invalid_arg "Engine.performance_map: plan arity mismatch"

let all_maps ?journal t suite detectors =
  maps_over ?journal t suite ~injection:(suite_injection suite) detectors
