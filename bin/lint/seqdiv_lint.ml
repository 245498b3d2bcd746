(* seqdiv-lint: static determinism & detector-contract checks.

   Usage: seqdiv_lint [--format text|json|sarif] [--baseline FILE]
                      [ROOT ...]                 (roots default to lib bin)

   Exit status 0 when no error-severity finding remains after baseline
   filtering, 1 on findings, 2 on usage errors (e.g. an unreadable
   root or unknown flag) — `dune build @lint` uses this as its CI
   gate. *)

let usage () =
  Format.eprintf
    "usage: seqdiv_lint [--format text|json|sarif] [--baseline FILE] [ROOT \
     ...]@.";
  exit 2

let () =
  let format = ref Seqdiv_analysis.Lint.Text in
  let baseline = ref None in
  let rec parse_args acc = function
    | [] -> List.rev acc
    | "--format" :: value :: rest -> (
        match Seqdiv_analysis.Lint.format_of_string value with
        | Some f ->
            format := f;
            parse_args acc rest
        | None -> usage ())
    | [ "--format" ] -> usage ()
    | "--baseline" :: value :: rest ->
        baseline := Some value;
        parse_args acc rest
    | [ "--baseline" ] -> usage ()
    | arg :: _ when String.length arg > 1 && arg.[0] = '-' && arg.[1] = '-' ->
        usage ()
    | root :: rest -> parse_args (root :: acc) rest
  in
  let roots =
    match parse_args [] (List.tl (Array.to_list Sys.argv)) with
    | [] -> [ "lib"; "bin" ]
    | roots -> roots
  in
  let files =
    try Seqdiv_analysis.Lint.load_tree roots
    with Sys_error msg ->
      Format.eprintf "seqdiv-lint: %s@." msg;
      exit 2
  in
  let diags = Seqdiv_analysis.Rules.run files in
  let diags =
    match !baseline with
    | None -> diags
    | Some path -> (
        match Seqdiv_analysis.Lint.load_baseline path with
        | Some b -> Seqdiv_analysis.Baseline.filter b diags
        | None ->
            Format.eprintf "seqdiv-lint: baseline %s not found@." path;
            exit 2)
  in
  print_string
    (Seqdiv_analysis.Lint.render !format ~files:(List.length files) diags);
  exit (if Seqdiv_analysis.Lint.has_errors diags then 1 else 0)
