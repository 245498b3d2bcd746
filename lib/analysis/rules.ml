type t = {
  id : string;
  name : string;
  severity : Diagnostic.severity;
  doc : string;
}

let syntax =
  {
    id = "R0";
    name = "syntax";
    severity = Diagnostic.Error;
    doc = "every linted file must parse with the installed compiler front end";
  }

let determinism =
  {
    id = "R1";
    name = "determinism";
    severity = Diagnostic.Error;
    doc =
      "library code must not read ambient randomness or wall-clock time, nor \
       iterate hash tables in unspecified order: a run is a pure function of \
       its seed";
  }

let output_hygiene =
  {
    id = "R2";
    name = "output-hygiene";
    severity = Diagnostic.Error;
    doc =
      "library code must not print to std channels directly; formatting goes \
       through Fmt, logging through Logs";
  }

let partiality =
  {
    id = "R3";
    name = "partiality";
    severity = Diagnostic.Error;
    doc =
      "library code avoids anonymous partial escapes (failwith, assert \
       false, invalid_arg, Option.get, List.hd/tl) outside whitelisted, \
       documented preconditions";
  }

let interfaces =
  {
    id = "R4";
    name = "interfaces";
    severity = Diagnostic.Error;
    doc = "every library .ml has a matching .mli that pins its public surface";
  }

let detector_contract =
  {
    id = "R5";
    name = "detector-contract";
    severity = Diagnostic.Error;
    doc =
      "every detector packed into the registry exposes the Detector.S \
       contract (name/train/score)";
  }

let concurrency =
  {
    id = "R6";
    name = "concurrency";
    severity = Diagnostic.Error;
    doc =
      "library code must not touch \
       Domain/Thread/Atomic/Mutex/Condition/Semaphore outside \
       lib/util/pool.ml and lib/core/serve.ml: all parallelism flows \
       through the pool (or the serve shard loop) so the determinism \
       contract stays auditable";
  }

let hot_path =
  {
    id = "R7";
    name = "hot-path";
    severity = Diagnostic.Error;
    doc =
      "detector score/score_range paths must not build window strings \
       (Trace.key) or run string-keyed lookups per window; score over the \
       raw trace through the allocation-free *_at trie cursor API";
  }

let swallow =
  {
    id = "R8";
    name = "swallow";
    severity = Diagnostic.Error;
    doc =
      "library code must not catch every exception with a bare wildcard or \
       variable handler: arbitrary failures belong to the supervisor via \
       Fault.classify, so a catch-all silently eats faults it was never \
       written for";
  }

let checkpoint =
  {
    id = "R9";
    name = "checkpoint";
    severity = Diagnostic.Error;
    doc =
      "every loop or recursive binding reachable from a train/score hot \
       path must reach Deadline.checkpoint, so the cooperative-deadline \
       contract survives new code";
  }

let fault_custody =
  {
    id = "R10";
    name = "fault-custody";
    severity = Diagnostic.Error;
    doc =
      "every exception constructor raisable on a supervised-task path must \
       be mapped by an explicit Fault.classify case: the \
       Transient/Fatal/Timeout taxonomy must never silently go incomplete";
  }

let allocation =
  {
    id = "R11";
    name = "allocation";
    severity = Diagnostic.Error;
    doc =
      "no closure construction, partial application, or boxed allocation \
       on the per-window scoring path: scoring cost must stay flat per \
       window";
  }

let suppression =
  {
    id = "R12";
    name = "suppression";
    severity = Diagnostic.Error;
    doc =
      "lint: allow markers must name known rules exactly and carry a \
       justification clause; a typo'd allow suppresses nothing, silently";
  }

let durability =
  {
    id = "R13";
    name = "durability";
    severity = Diagnostic.Error;
    doc =
      "library code must not call Unix.fsync, Sys.rename or Unix.rename \
       outside lib/core/wal.ml: every durable write goes through the \
       write-ahead log, so crash safety has one implementation to audit";
  }

let all =
  [
    syntax;
    determinism;
    output_hygiene;
    partiality;
    interfaces;
    detector_contract;
    concurrency;
    hot_path;
    swallow;
    checkpoint;
    fault_custody;
    allocation;
    suppression;
    durability;
  ]

let diag rule (src : Source.t) ~line ~col message =
  Diagnostic.make ~rule:rule.id ~rule_name:rule.name ~severity:rule.severity
    ~file:src.Source.path ~line ~col message

let diag_at rule src (loc : Location.t) message =
  let p = loc.Location.loc_start in
  diag rule src ~line:p.Lexing.pos_lnum
    ~col:(p.Lexing.pos_cnum - p.Lexing.pos_bol)
    message

(* Variants for findings that do not sit in a [Source.t] (whole-program
   rules locate by call-graph node) or that need a non-default
   severity (R12's bare-allow warning). *)
let diag_path rule ~path ~line ~col message =
  Diagnostic.make ~rule:rule.id ~rule_name:rule.name ~severity:rule.severity
    ~file:path ~line ~col message

let diag_sev rule ~severity (src : Source.t) ~line ~col message =
  Diagnostic.make ~rule:rule.id ~rule_name:rule.name ~severity
    ~file:src.Source.path ~line ~col message

let flatten lid = try Longident.flatten lid with Misc.Fatal_error -> []
let strip_stdlib = function "Stdlib" :: rest -> rest | parts -> parts

(* R12: the whitelist is part of the correctness argument, so its
   markers are linted too — in every file role, since a typo'd allow
   is dead weight wherever it sits.  Unknown or missing rule tokens
   are errors (the marker suppresses nothing); a marker without a
   justification clause is a warning. *)
let known_tokens =
  "all"
  :: List.concat_map
       (fun r -> [ String.lowercase_ascii r.id; String.lowercase_ascii r.name ])
       all

let check_suppressions (src : Source.t) =
  List.concat_map
    (fun (line, (a : Source.allow)) ->
      if a.Source.tokens = [] then
        [
          diag suppression src ~line ~col:a.Source.marker_col
            "allow marker names no rules; write `lint: allow <rule> — \
             justification`";
        ]
      else
        let unknown =
          List.filter_map
            (fun (tok, col) ->
              if List.mem tok known_tokens then None
              else
                Some
                  (diag suppression src ~line ~col
                     (Printf.sprintf
                        "unknown rule token %S in allow marker; it suppresses \
                         nothing — use a rule id (r3), a rule name \
                         (partiality), or `all`"
                        tok)))
            a.Source.tokens
        in
        let bare =
          if a.Source.justified then []
          else
            [
              diag_sev suppression ~severity:Diagnostic.Warning src ~line
                ~col:a.Source.marker_col
                "bare allow marker; state why the rule is safe to suppress \
                 here: `lint: allow <rule> — justification`";
            ]
        in
        unknown @ bare)
    (Source.markers src)

let print_fns =
  [
    "print_string";
    "print_endline";
    "print_newline";
    "print_char";
    "print_int";
    "print_float";
    "print_bytes";
    "prerr_string";
    "prerr_endline";
    "prerr_newline";
    "prerr_char";
    "prerr_int";
    "prerr_float";
    "prerr_bytes";
  ]

let determinism_violation parts =
  match parts with
  | "Random" :: _ ->
      Some
        "Stdlib.Random is ambient state; thread randomness through \
         Seqdiv_util.Prng so every result is a function of its seed"
  | [ "Sys"; "time" ] | [ "Unix"; "gettimeofday" ] | [ "Unix"; "time" ] ->
      Some
        "wall-clock reads make results depend on when they were computed; \
         take time as explicit input if it is data"
  | [ "Hashtbl"; "iter" ] | [ "Hashtbl"; "fold" ] ->
      Some
        "Hashtbl iteration order is unspecified; fold over sorted keys, or \
         whitelist the site if it is provably order-insensitive"
  | _ -> None

let output_violation parts =
  match parts with
  | [ "Printf"; "printf" ] | [ "Printf"; "eprintf" ] ->
      Some
        "library code must not print; render through Fmt or log through Logs"
  | [ f ] when List.mem f print_fns ->
      Some
        "library code must not print; return a string/formatter or log \
         through Logs"
  | _ -> None

(* R6: the concurrency primitives are legitimate only inside the worker
   pool; anywhere else in the library they would let order-dependent or
   racy computation reach results unaudited. *)
let concurrency_modules =
  [ "Domain"; "Thread"; "Atomic"; "Mutex"; "Condition"; "Semaphore" ]

let concurrency_violation parts =
  match parts with
  | m :: _ when List.mem m concurrency_modules ->
      Some
        (Printf.sprintf
           "%s belongs in lib/util/pool.ml: library code stays single-domain \
            and hands the pool pure closures (or whitelist with `lint: allow \
            concurrency`)"
           m)
  | _ -> None

(* Whether [src] is one of [paths], which are relative to the tree
   root: the linter may be run from above it. *)
let path_in paths (src : Source.t) =
  let p = src.Source.path in
  List.exists
    (fun exempt ->
      let n = String.length exempt in
      p = exempt
      || (String.length p > n
         && String.sub p (String.length p - n - 1) (n + 1) = "/" ^ exempt))
    paths

(* Standing R6 exemptions.  [pool.ml] is the worker pool itself.
   [serve.ml] is the one long-running server module: it owns the
   listener socket, the per-connection reader/writer threads and the
   bounded shard queues, which cannot be expressed as pool tasks (they
   are not a finite batch of pure closures but live, stateful loops).
   Its determinism contract is enforced externally instead: the
   per-session incident log is proven identical to a serial Online
   replay by qcheck (test_session_table), at any shard count and across
   kill/resume. *)
let concurrency_exempt_paths = [ "lib/util/pool.ml"; "lib/core/serve.ml" ]

let concurrency_exempt = path_in concurrency_exempt_paths

let partiality_violation parts =
  match parts with
  | [ "failwith" ] ->
      Some
        "failwith raises an anonymous Failure; raise a dedicated exception \
         with context, or return a Result"
  | [ "invalid_arg" ] ->
      Some
        "invalid_arg is a partial escape; prefer a total API, or whitelist \
         the documented precondition"
  | [ "Option"; "get" ] ->
      Some "Option.get is partial; match on the option"
  | [ "List"; "hd" ] | [ "List"; "tl" ] ->
      Some "List.hd/List.tl are partial; match on the list"
  | _ -> None

(* R7: the scoring hot paths serve every window of every test stream;
   a string key built or hashed per window is exactly the allocation
   profile the trie-backed data layer removed.  Confined to detector
   implementations, and within those to the [score]/[score_range]
   bindings (train-time key building is legitimate). *)
let string_key_queries =
  [ "mem"; "count"; "freq"; "is_foreign"; "is_rare"; "is_common"; "find" ]

let hot_path_violation parts =
  match parts with
  | [ "Trace"; ("key" | "key_of_symbols") ] ->
      Some
        "builds a window string per call; score over Trace.raw with the \
         *_at cursor API (or whitelist with `lint: allow hot-path`)"
  | [ "Seq_trie"; f ] when List.mem f string_key_queries ->
      Some
        (Printf.sprintf
           "Seq_trie.%s is a string-keyed lookup; descend with the Seq_trie \
            *_at cursor API over the raw trace (or whitelist with `lint: \
            allow hot-path`)"
           f)
  | [ "Hashtbl"; ("find" | "find_opt" | "mem") ] ->
      Some
        "per-window hash lookups belong to the replaced string-key backend; \
         read counts out of the shared trie (or whitelist with `lint: allow \
         hot-path`)"
  | _ -> None

(* R8: a handler that matches every exception takes custody of faults
   it cannot understand — chaos injections, Out_of_memory, Stack_overflow
   — and hides them from the supervisor.  The fault layer is the one
   module whose job is exactly that custody, so it is exempt; every
   other site must name the exceptions it expects or carry a
   `lint: allow swallow` marker. *)
let swallow_exempt = path_in [ "lib/core/fault.ml" ]

(* R13: fsync and rename are the two halves of the crash-safety
   argument — a write is on disk, and a rewrite replaces the file
   whole.  They belong to the write-ahead log alone, so that every
   durable write inherits its recovery contract and crash points have
   one place to be injected.  Its one standing exemption is the log
   itself. *)
let durability_calls =
  [ [ "Unix"; "fsync" ]; [ "Sys"; "rename" ]; [ "Unix"; "rename" ] ]

let durability_violation parts =
  if List.mem parts durability_calls then
    Some
      (Printf.sprintf
         "%s belongs in lib/core/wal.ml: durable writes go through the \
          write-ahead log (or whitelist with `lint: allow durability`)"
         (String.concat "." parts))
  else None

let durability_exempt = path_in [ "lib/core/wal.ml" ]

let rec catch_all_pattern (p : Parsetree.pattern) =
  match p.Parsetree.ppat_desc with
  | Parsetree.Ppat_any | Parsetree.Ppat_var _ -> true
  | Parsetree.Ppat_alias (inner, _) -> catch_all_pattern inner
  | Parsetree.Ppat_or (a, b) -> catch_all_pattern a || catch_all_pattern b
  | _ -> false

let swallow_message =
  "catch-all exception handler; name the exceptions this site expects — \
   arbitrary failures belong to the supervisor through Fault (or whitelist \
   with `lint: allow swallow`)"

(* Flag the catch-all handler cases of [try]/[match ... with exception]. *)
let swallow_violations (cases : Parsetree.case list) ~exception_cases_only =
  List.filter_map
    (fun (c : Parsetree.case) ->
      if c.Parsetree.pc_guard <> None then None
      else
        let pat = c.Parsetree.pc_lhs in
        match pat.Parsetree.ppat_desc with
        | Parsetree.Ppat_exception inner when catch_all_pattern inner ->
            Some inner.Parsetree.ppat_loc
        | _ when (not exception_cases_only) && catch_all_pattern pat ->
            Some pat.Parsetree.ppat_loc
        | _ -> None)
    cases

let detectors_dir (src : Source.t) =
  let dir = Source.dir src in
  let suffix = "detectors" in
  let n = String.length suffix and dn = String.length dir in
  dir = suffix || (dn > n && String.sub dir (dn - n - 1) (n + 1) = "/" ^ suffix)

let score_binding_names = [ "score"; "score_range" ]

let check_hot_paths src structure =
  let found = ref [] in
  let default = Ast_iterator.default_iterator in
  let in_score = ref false in
  let expr self (e : Parsetree.expression) =
    (match e.Parsetree.pexp_desc with
    | Parsetree.Pexp_ident { txt; loc } when !in_score -> (
        match hot_path_violation (strip_stdlib (flatten txt)) with
        | Some m -> found := diag_at hot_path src loc m :: !found
        | None -> ())
    | _ -> ());
    default.Ast_iterator.expr self e
  in
  let value_binding self (vb : Parsetree.value_binding) =
    let is_score =
      match vb.Parsetree.pvb_pat.Parsetree.ppat_desc with
      | Parsetree.Ppat_var { txt; _ } -> List.mem txt score_binding_names
      | _ -> false
    in
    if is_score then begin
      let saved = !in_score in
      in_score := true;
      default.Ast_iterator.value_binding self vb;
      in_score := saved
    end
    else default.Ast_iterator.value_binding self vb
  in
  let it = { default with Ast_iterator.expr; Ast_iterator.value_binding } in
  it.Ast_iterator.structure it structure;
  List.rev !found

(* R1–R3 over one parsed library implementation. *)
let check_structure src structure =
  let found = ref [] in
  let add rule loc message = found := diag_at rule src loc message :: !found in
  let on_ident lid (loc : Location.t) =
    let parts = strip_stdlib (flatten lid) in
    (match determinism_violation parts with
    | Some m -> add determinism loc m
    | None -> ());
    (match output_violation parts with
    | Some m -> add output_hygiene loc m
    | None -> ());
    (match concurrency_violation parts with
    | Some m when not (concurrency_exempt src) -> add concurrency loc m
    | Some _ | None -> ());
    (match durability_violation parts with
    | Some m when not (durability_exempt src) -> add durability loc m
    | Some _ | None -> ());
    match partiality_violation parts with
    | Some m -> add partiality loc m
    | None -> ()
  in
  let default = Ast_iterator.default_iterator in
  let expr self (e : Parsetree.expression) =
    (match e.Parsetree.pexp_desc with
    | Parsetree.Pexp_ident { txt; loc } -> on_ident txt loc
    | Parsetree.Pexp_assert
        {
          pexp_desc = Parsetree.Pexp_construct ({ txt = Longident.Lident "false"; _ }, None);
          _;
        } ->
        add partiality e.Parsetree.pexp_loc
          "assert false is not total; make the invariant explicit in the \
           types or raise a dedicated exception"
    | Parsetree.Pexp_try (_, cases) when not (swallow_exempt src) ->
        List.iter
          (fun loc -> add swallow loc swallow_message)
          (swallow_violations cases ~exception_cases_only:false)
    | Parsetree.Pexp_match (_, cases) when not (swallow_exempt src) ->
        List.iter
          (fun loc -> add swallow loc swallow_message)
          (swallow_violations cases ~exception_cases_only:true)
    | _ -> ());
    default.Ast_iterator.expr self e
  in
  let it = { default with Ast_iterator.expr } in
  it.Ast_iterator.structure it structure;
  List.rev !found

let check_parsed (src : Source.t) parsed =
  match parsed with
  | Source.Broken { line; col; message } -> [ diag syntax src ~line ~col message ]
  | Source.Structure structure when src.Source.role = Source.Lib ->
      check_structure src structure
      @ (if detectors_dir src then check_hot_paths src structure else [])
  | Source.Structure _ | Source.Signature _ -> []

let not_allowed (src : Source.t) (d : Diagnostic.t) =
  not
    (Source.allowed src ~rule:d.Diagnostic.rule ~rule_name:d.Diagnostic.rule_name
       ~line:d.Diagnostic.line)

let check_file src =
  check_suppressions src @ check_parsed src (Source.parse src)
  |> List.filter (not_allowed src)
  |> List.sort Diagnostic.compare

(* R4: every lib .ml needs a sibling .mli. *)
let check_interfaces files =
  let mli_bases =
    List.filter_map
      (fun (f : Source.t) ->
        if f.Source.kind = Source.Mli then Some (Source.base f) else None)
      files
  in
  List.filter_map
    (fun (f : Source.t) ->
      if
        f.Source.role = Source.Lib
        && f.Source.kind = Source.Ml
        && not (List.mem (Source.base f) mli_bases)
      then
        Some
          (diag interfaces f ~line:1 ~col:0
             (Printf.sprintf "missing interface: expected %s.mli alongside %s"
                (Source.base f) f.Source.path))
      else None)
    files

(* R5 helpers. *)
let packed_modules structure =
  let found = ref [] in
  let default = Ast_iterator.default_iterator in
  let expr self (e : Parsetree.expression) =
    (match e.Parsetree.pexp_desc with
    | Parsetree.Pexp_pack
        { Parsetree.pmod_desc = Parsetree.Pmod_ident { txt; loc }; _ } -> (
        match List.rev (flatten txt) with
        | name :: _ -> found := (name, loc) :: !found
        | [] -> ())
    | _ -> ());
    default.Ast_iterator.expr self e
  in
  let it = { default with Ast_iterator.expr } in
  it.Ast_iterator.structure it structure;
  let seen = ref [] in
  List.rev !found
  |> List.filter (fun (name, _) ->
         if List.mem name !seen then false
         else begin
           seen := name :: !seen;
           true
         end)

let signature_vals items =
  List.filter_map
    (fun (item : Parsetree.signature_item) ->
      match item.Parsetree.psig_desc with
      | Parsetree.Psig_value vd -> Some vd.Parsetree.pval_name.Location.txt
      | _ -> None)
    items

let includes_detector_s items =
  List.exists
    (fun (item : Parsetree.signature_item) ->
      match item.Parsetree.psig_desc with
      | Parsetree.Psig_include incl -> (
          match incl.Parsetree.pincl_mod.Parsetree.pmty_desc with
          | Parsetree.Pmty_ident { txt; _ } -> (
              match List.rev (flatten txt) with
              | [ "S" ] -> true
              | "S" :: "Detector" :: _ -> true
              | _ -> false)
          | _ -> false)
      | _ -> false)
    items

let required_contract = [ "name"; "train"; "score" ]

let check_detector_contract files parsed_of =
  let registry =
    List.find_opt
      (fun (f : Source.t) ->
        f.Source.role = Source.Lib
        && f.Source.kind = Source.Ml
        && Source.module_name f = "Registry")
      files
  in
  match registry with
  | None -> []
  | Some reg -> (
      match parsed_of reg with
      | Source.Structure structure ->
          let interface_of name =
            let candidates =
              List.filter
                (fun (f : Source.t) ->
                  f.Source.kind = Source.Mli
                  && f.Source.role = Source.Lib
                  && Source.module_name f = name)
                files
            in
            match
              List.find_opt (fun f -> Source.dir f = Source.dir reg) candidates
            with
            | Some f -> Some f
            | None -> ( match candidates with f :: _ -> Some f | [] -> None)
          in
          packed_modules structure
          |> List.concat_map (fun (name, loc) ->
                 match interface_of name with
                 | None ->
                     [
                       diag_at detector_contract reg loc
                         (Printf.sprintf
                            "detector %s is in the registry but has no .mli; \
                             the contract cannot be checked"
                            name);
                     ]
                 | Some mli -> (
                     match parsed_of mli with
                     | Source.Signature items ->
                         if includes_detector_s items then []
                         else
                           let vals = signature_vals items in
                           let missing =
                             List.filter
                               (fun v -> not (List.mem v vals))
                               required_contract
                           in
                           if missing = [] then []
                           else
                             [
                               diag_at detector_contract reg loc
                                 (Printf.sprintf
                                    "detector %s does not satisfy the \
                                     Detector contract: %s missing %s \
                                     (declare the vals or include Detector.S)"
                                    name mli.Source.path
                                    (String.concat ", " missing));
                             ]
                     | Source.Structure _ | Source.Broken _ ->
                         (* An unparseable .mli is already an R0 finding. *)
                         []))
      | Source.Signature _ | Source.Broken _ -> [])

(* ---- Whole-program rules R9–R11 ----

   These run over the call graph of all library implementations at
   once; see Callgraph/Reach/Effects for the model and docs/LINTING.md
   for its documented imprecision. *)

(* R9: flag hot-path functions that loop without reaching a
   checkpoint, unless every hot caller is itself guarded. *)
let check_checkpoints g ~hot =
  let guarded = Effects.guarded g ~hot in
  List.filter_map
    (fun (fn : Callgraph.fn) ->
      if fn.Callgraph.has_loop && not (guarded fn.Callgraph.id) then
        Some
          (diag_path checkpoint ~path:fn.Callgraph.path ~line:fn.Callgraph.line
             ~col:fn.Callgraph.col
             (Printf.sprintf
                "%s.%s loops on a train/score hot path but never reaches \
                 Deadline.checkpoint; add a periodic checkpoint so the \
                 deadline can fire (or whitelist with `lint: allow \
                 checkpoint`)"
                fn.Callgraph.id.Callgraph.unit_name
                fn.Callgraph.id.Callgraph.fn_name))
      else None)
    hot

(* R10 helpers: the constructor heads matched by [Fault.classify]. *)
let rec pattern_constructors (p : Parsetree.pattern) =
  match p.Parsetree.ppat_desc with
  | Parsetree.Ppat_construct ({ txt; _ }, _) -> (
      match List.rev (flatten txt) with c :: _ -> [ c ] | [] -> [])
  | Parsetree.Ppat_or (a, b) ->
      pattern_constructors a @ pattern_constructors b
  | Parsetree.Ppat_alias (inner, _) -> pattern_constructors inner
  | _ -> []

let classify_cases structure =
  let strip_head e =
    let rec go (e : Parsetree.expression) =
      match e.Parsetree.pexp_desc with
      | Parsetree.Pexp_fun (_, _, _, body) -> go body
      | Parsetree.Pexp_newtype (_, body) -> go body
      | _ -> e
    in
    let body = go e in
    match body.Parsetree.pexp_desc with
    | Parsetree.Pexp_function cases -> Some cases
    | Parsetree.Pexp_match (_, cases) -> Some cases
    | _ -> None
  in
  List.find_map
    (fun (item : Parsetree.structure_item) ->
      match item.Parsetree.pstr_desc with
      | Parsetree.Pstr_value (_, vbs) ->
          List.find_map
            (fun (vb : Parsetree.value_binding) ->
              match vb.Parsetree.pvb_pat.Parsetree.ppat_desc with
              | Parsetree.Ppat_var { txt = "classify"; _ } -> (
                  match strip_head vb.Parsetree.pvb_expr with
                  | Some cases ->
                      Some
                        ( vb.Parsetree.pvb_loc,
                          List.concat_map
                            (fun (c : Parsetree.case) ->
                              pattern_constructors c.Parsetree.pc_lhs)
                            cases )
                  | None -> None)
              | _ -> None)
            vbs
      | _ -> None)
    structure

let check_fault_custody lib_mls ~hot =
  let classify =
    List.find_map
      (fun ((f : Source.t), structure) ->
        if Source.module_name f = "Fault" then
          match classify_cases structure with
          | Some (loc, ctors) -> Some (f, loc, ctors)
          | None -> None
        else None)
      lib_mls
  in
  match classify with
  | None -> []
  | Some (src, loc, mapped) ->
      Effects.raisable ~hot
      |> List.filter_map (fun (exn, (epath, eline, _)) ->
             if List.mem exn mapped then None
             else
               Some
                 (diag_at fault_custody src loc
                    (Printf.sprintf
                       "%s can be raised on a supervised-task path (e.g. at \
                        %s:%d) but Fault.classify has no case for it; map it \
                        explicitly (or whitelist with `lint: allow \
                        fault-custody`)"
                       exn epath eline)))

(* R11: curated external calls that allocate their result. *)
let external_allocator parts =
  match parts with
  | [
      "Array";
      ( "make" | "init" | "copy" | "append" | "sub" | "concat" | "of_list"
      | "to_list" | "map" | "mapi" | "make_matrix" | "of_seq" | "to_seq" );
    ] ->
      true
  | [
      "List";
      ( "map" | "mapi" | "init" | "append" | "rev" | "rev_append" | "filter"
      | "filter_map" | "concat" | "concat_map" | "sort" | "stable_sort"
      | "of_seq" | "to_seq" | "cons" );
    ] ->
      true
  | [
      "String";
      ( "make" | "init" | "sub" | "concat" | "map" | "mapi" | "of_seq"
      | "to_seq" | "split_on_char" | "cat" );
    ] ->
      true
  | "Bytes" :: _ | "Seq" :: _ :: _ -> true
  | [ "Buffer"; ("create" | "contents" | "to_bytes") ] -> true
  | [ "Hashtbl"; ("create" | "copy" | "add" | "replace") ] -> true
  | [ "Printf"; "sprintf" ] | [ "Format"; ("sprintf" | "asprintf") ] -> true
  | [ "Option"; ("map" | "some" | "bind" | "join" | "to_list") ] -> true
  | _ -> false

let alloc_kind_message = function
  | Callgraph.Closure -> "closure constructed"
  | Callgraph.Ref -> "ref cell allocated"
  | Callgraph.Tuple -> "tuple allocated"
  | Callgraph.Array_literal -> "array literal allocated"
  | Callgraph.Append -> "append (^/@) allocates"

let check_allocations g ~score =
  let pw = Effects.per_window g ~score ~seeds:(Reach.per_symbol_roots g) in
  let diag_loc (loc : Location.t) message =
    let p = loc.Location.loc_start in
    fun path ->
      diag_path allocation ~path ~line:p.Lexing.pos_lnum
        ~col:(p.Lexing.pos_cnum - p.Lexing.pos_bol)
        message
  in
  List.concat_map
    (fun (fn : Callgraph.fn) ->
      let name =
        fn.Callgraph.id.Callgraph.unit_name ^ "."
        ^ fn.Callgraph.id.Callgraph.fn_name
      in
      let per_window_fn = pw fn.Callgraph.id in
      let of_alloc (a : Callgraph.alloc) =
        if per_window_fn || a.Callgraph.alloc_in_loop then
          Some
            (diag_loc a.Callgraph.alloc_loc
               (Printf.sprintf
                  "%s per scored window in %s; hoist it off the scoring path \
                   (or whitelist with `lint: allow allocation`)"
                  (alloc_kind_message a.Callgraph.kind)
                  name)
               fn.Callgraph.path)
        else None
      in
      let of_site (s : Callgraph.site) =
        if not (per_window_fn || s.Callgraph.in_loop) then None
        else
          match s.Callgraph.target with
          | Callgraph.External parts
            when s.Callgraph.args >= 1 && external_allocator parts ->
              Some
                (diag_loc s.Callgraph.site_loc
                   (Printf.sprintf
                      "%s allocates per scored window in %s; reuse a \
                       preallocated buffer (or whitelist with `lint: allow \
                       allocation`)"
                      (String.concat "." parts) name)
                   fn.Callgraph.path)
          | Callgraph.Internal id when s.Callgraph.args >= 1 -> (
              match Callgraph.find g id with
              | Some callee
                when callee.Callgraph.arity > 0
                     && (not callee.Callgraph.has_optional)
                     && s.Callgraph.args < callee.Callgraph.arity ->
                  Some
                    (diag_loc s.Callgraph.site_loc
                       (Printf.sprintf
                          "partial application of %s.%s allocates a closure \
                           per scored window in %s; apply all %d arguments \
                           (or whitelist with `lint: allow allocation`)"
                          id.Callgraph.unit_name id.Callgraph.fn_name name
                          callee.Callgraph.arity)
                       fn.Callgraph.path)
              | Some _ | None -> None)
          | Callgraph.Internal _ | Callgraph.External _ -> None
      in
      List.filter_map of_alloc fn.Callgraph.allocs
      @ List.filter_map of_site fn.Callgraph.sites)
    score

let check_program files parsed_of =
  let lib_mls =
    List.filter_map
      (fun (f : Source.t) ->
        if f.Source.role = Source.Lib && f.Source.kind = Source.Ml then
          match parsed_of f with
          | Source.Structure s -> Some (f, s)
          | Source.Signature _ | Source.Broken _ -> None
        else None)
      files
  in
  if lib_mls = [] then []
  else
    let g = Callgraph.build lib_mls in
    let hot = Reach.reachable g ~roots:(Reach.hot_roots g) in
    let score = Reach.reachable g ~roots:(Reach.score_roots g) in
    check_checkpoints g ~hot
    @ check_fault_custody lib_mls ~hot
    @ check_allocations g ~score

let run files =
  let parsed =
    List.map (fun (f : Source.t) -> (f.Source.path, Source.parse f)) files
  in
  let parsed_of (f : Source.t) = List.assoc f.Source.path parsed in
  let per_file =
    List.concat_map
      (fun f -> check_suppressions f @ check_parsed f (parsed_of f))
      files
  in
  let project =
    check_interfaces files
    @ check_detector_contract files parsed_of
    @ check_program files parsed_of
  in
  let source_of path =
    List.find_opt (fun (f : Source.t) -> f.Source.path = path) files
  in
  per_file @ project
  |> List.filter (fun (d : Diagnostic.t) ->
         match source_of d.Diagnostic.file with
         | Some src -> not_allowed src d
         | None -> true)
  |> List.sort_uniq Diagnostic.compare
