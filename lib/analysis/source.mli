(** A source file as seen by the linter: path, role, raw text, its
    Parsetree, and the allow whitelist — comments of the form
    [lint: allow <rule> — justification].

    Files are plain values so that the rule engine is a pure function
    from a file set to diagnostics — the test suite feeds it inline
    fixtures and the executable feeds it the real tree. *)

type role = Lib | Bin | Test | Other
(** Which part of the tree a file belongs to.  Determinism, hygiene and
    partiality rules apply only to [Lib] (result-producing library
    code); executables may print and may measure time. *)

type kind = Ml | Mli

type parsed =
  | Structure of Parsetree.structure  (** A parsed [.ml]. *)
  | Signature of Parsetree.signature  (** A parsed [.mli]. *)
  | Broken of { line : int; col : int; message : string }
      (** The file does not parse; [line]/[col] point at the error. *)

type allow = {
  marker_col : int;  (** 0-based column where [lint:] starts. *)
  tokens : (string * int) list;
      (** Lowercased rule tokens with their 0-based columns. *)
  justified : bool;
      (** True when a non-empty justification clause follows the
          tokens (after an em-dash or [--] separator). *)
}
(** One parsed [lint: allow] marker. *)

type t = private {
  path : string;
  role : role;
  kind : kind;
  content : string;
  allows : allow option array;  (** Per line (0-based). *)
}

val make : path:string -> content:string -> t
(** Build a file value.  The role is derived from the first path
    segment ([lib/…] → [Lib], …) and the kind from the extension;
    whitelist comments are collected eagerly. *)

val role_of_path : string -> role

val parse : t -> parsed
(** Parse with the installed compiler front end (compiler-libs).
    Never raises: lexer and parser errors come back as [Broken]. *)

val module_name : t -> string
(** OCaml module name: capitalized basename without extension. *)

val base : t -> string
(** Path without its extension — the key matching [foo.ml] to
    [foo.mli]. *)

val dir : t -> string

val markers : t -> (int * allow) list
(** All [lint: allow] markers in the file, as (1-based line, marker)
    pairs in line order — the input to the R12 suppression-hygiene
    checks. *)

val allowed : t -> rule:string -> rule_name:string -> line:int -> bool
(** True when line [line] (1-based) is covered by a whitelist comment
    for this rule: an allow comment suppresses findings on its own line
    and on the line directly below, so both trailing and preceding
    placement work.  Tokens match the rule id ([R3]), the rule name
    ([partiality]), or [all], exactly and case-insensitively. *)
