type role = Lib | Bin | Test | Other
type kind = Ml | Mli

type parsed =
  | Structure of Parsetree.structure
  | Signature of Parsetree.signature
  | Broken of { line : int; col : int; message : string }

type allow = {
  marker_col : int;
  tokens : (string * int) list;
  justified : bool;
}

type t = {
  path : string;
  role : role;
  kind : kind;
  content : string;
  allows : allow option array;
}

let role_of_path path =
  let first =
    match String.index_opt path '/' with
    | Some i -> String.sub path 0 i
    | None -> Filename.dirname path
  in
  match first with
  | "lib" -> Lib
  | "bin" -> Bin
  | "test" -> Test
  | _ -> Other

let kind_of_path path = if Filename.check_suffix path ".mli" then Mli else Ml

let split_lines content = String.split_on_char '\n' content

let is_token_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '-'

let is_all_dashes s = s <> "" && String.for_all (fun c -> c = '-') s

(* Extract a [lint: allow r1 r2 — justification] marker on one line.
   The scan is purely lexical — a marker inside a string literal would
   also count — but the marker is unusual enough that this cannot
   misfire in practice, and a lexical scan keeps comments (which the
   Parsetree drops) visible to the linter.

   Tokens run until the first non-token character or an all-dash token
   ([--], [---]); everything after that separator, minus the trailing
   comment closer, is the justification clause.  The em-dash used in
   most markers is multi-byte and therefore stops the token scan
   naturally. *)
let allow_of_line line =
  match
    (* Find a comment-opener-prefixed "lint:" — requiring the opener
       keeps mentions of the marker inside string literals (the rule
       messages themselves name their escape hatch) from parsing as
       markers — then require the next word to be "allow". *)
    let n = String.length line in
    let opened i =
      let rec back j =
        if j >= 1 && (line.[j - 1] = ' ' || line.[j - 1] = '\t') then
          back (j - 1)
        else j
      in
      let j = back i in
      j >= 2 && line.[j - 2] = '(' && line.[j - 1] = '*'
    in
    let rec find i =
      if i + 5 > n then None
      else if String.sub line i 5 = "lint:" && opened i then Some i
      else find (i + 1)
    in
    find 0
  with
  | None -> None
  | Some marker_col ->
      let n = String.length line in
      let rec skip_blank i =
        if i < n && (line.[i] = ' ' || line.[i] = '\t') then skip_blank (i + 1)
        else i
      in
      let token i =
        let rec stop j =
          if j < n && is_token_char line.[j] then stop (j + 1) else j
        in
        let j = stop i in
        (String.lowercase_ascii (String.sub line i (j - i)), j)
      in
      let i = skip_blank (marker_col + 5) in
      let verb, i = token i in
      if verb <> "allow" then None
      else
        let rec tokens i acc =
          let i = skip_blank i in
          if i >= n || not (is_token_char line.[i]) then (List.rev acc, i)
          else
            let tok, j = token i in
            if is_all_dashes tok then (List.rev acc, j)
            else tokens j ((tok, i) :: acc)
        in
        let tokens, rest_at = tokens i [] in
        let rest = String.sub line rest_at (n - rest_at) in
        let rest =
          let r = String.trim rest in
          if
            String.length r >= 2
            && String.sub r (String.length r - 2) 2 = "*)"
          then String.trim (String.sub r 0 (String.length r - 2))
          else r
        in
        Some { marker_col; tokens; justified = rest <> "" }

let make ~path ~content =
  let allows =
    split_lines content |> List.map allow_of_line |> Array.of_list
  in
  { path; role = role_of_path path; kind = kind_of_path path; content; allows }

let parse t =
  let lexbuf = Lexing.from_string t.content in
  Location.init lexbuf t.path;
  let broken (loc : Location.t) message =
    let p = loc.loc_start in
    Broken { line = p.pos_lnum; col = p.pos_cnum - p.pos_bol; message }
  in
  try
    match t.kind with
    | Ml -> Structure (Parse.implementation lexbuf)
    | Mli -> Signature (Parse.interface lexbuf)
  with
  | Syntaxerr.Error err ->
      broken (Syntaxerr.location_of_error err) "syntax error"
  | Lexer.Error (_, loc) -> broken loc "lexing error"
  (* lint: allow swallow — any front-end crash degrades to a Broken finding *)
  | exn ->
      Broken { line = 1; col = 0; message = Printexc.to_string exn }

let module_name t =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename t.path))

let base t = Filename.remove_extension t.path
let dir t = Filename.dirname t.path

let markers t =
  let acc = ref [] in
  for i = Array.length t.allows - 1 downto 0 do
    match t.allows.(i) with
    | None -> ()
    | Some a -> acc := (i + 1, a) :: !acc
  done;
  !acc

let line_allow t line =
  if line < 1 || line > Array.length t.allows then None
  else t.allows.(line - 1)

let allowed t ~rule ~rule_name ~line =
  let rule = String.lowercase_ascii rule
  and rule_name = String.lowercase_ascii rule_name in
  let covers (tok, _) = tok = rule || tok = rule_name || tok = "all" in
  let line_covers l =
    match line_allow t l with
    | None -> false
    | Some a -> List.exists covers a.tokens
  in
  line_covers line || line_covers (line - 1)
