#!/bin/sh
# Code lines of the OCaml sources: the lines of every .ml/.mli file
# that hold something outside comments.  Blank lines and lines that
# are all comment do not count; a line inside a string literal does.
#
# Usage: scripts/loc.sh [DIR...]
#   With no DIR, counts lib, bin and test from the repository root.
#   Prints one "<dir> <code lines> <files>" row per DIR, then a total.
#
# The scan follows the OCaml lexer far enough to be exact on this
# tree: comments nest; a string inside a comment is skipped, so its
# "*)" closes nothing; "(*" inside a string or a {id|...|id} quoted
# string opens nothing; and a char literal such as '"' or '\'' starts
# no string, while the quote of a type variable ('a) or of a primed
# name (x') is plain code.
set -eu

if [ $# -eq 0 ]; then
  cd "$(dirname "$0")/.."
  set -- lib bin test
fi

scan='
FNR == 1 { depth = 0; str = 0; qid = "" }
{
  line = $0; len = length(line); code = 0; i = 1
  while (i <= len) {
    c = substr(line, i, 1)
    if (str == 1) {
      # "...": a backslash escapes the next character.
      if (c == "\\") i++
      else if (c == "\"") str = 0
      if (depth == 0) code = 1
      i++; continue
    }
    if (str == 2) {
      # {id|...|id}: no escapes, ends at the matching |id}.
      stop = "|" qid "}"
      if (substr(line, i, length(stop)) == stop) { i += length(stop); str = 0 }
      else i++
      if (depth == 0) code = 1
      continue
    }
    if (c == "(" && substr(line, i + 1, 1) == "*") { depth++; i += 2; continue }
    if (depth > 0 && c == "*" && substr(line, i + 1, 1) == ")") {
      depth--; i += 2; continue
    }
    if (c == "\"") { str = 1; if (depth == 0) code = 1; i++; continue }
    if (c == "{" && match(substr(line, i), /^\{[a-z_]*\|/)) {
      qid = substr(line, i + 1, RLENGTH - 2); str = 2; i += RLENGTH
      if (depth == 0) code = 1
      continue
    }
    if (c == "\047" && (i == 1 || substr(line, i - 1, 1) !~ /[A-Za-z0-9_\047]/)) {
      if (substr(line, i + 1, 1) == "\\") {
        # Escaped char literal: skip the escaped character, then up to
        # the closing quote.
        j = i + 3
        while (j <= len && substr(line, j, 1) != "\047") j++
        if (depth == 0) code = 1
        i = j + 1; continue
      }
      if (substr(line, i + 2, 1) == "\047") {
        if (depth == 0) code = 1
        i += 3; continue
      }
    }
    if (depth == 0 && c !~ /[ \t\r]/) code = 1
    i++
  }
  if (code) n++
}
END { print n + 0 }
'

total=0
total_files=0
for dir in "$@"; do
  files=$(find "$dir" -type f \( -name '*.ml' -o -name '*.mli' \) | wc -l)
  lines=$(find "$dir" -type f \( -name '*.ml' -o -name '*.mli' \) \
    -exec awk "$scan" {} + | awk '{ s += $1 } END { print s + 0 }')
  printf '%-8s %7d %5d\n' "$dir" "$lines" "$files"
  total=$((total + lines))
  total_files=$((total_files + files))
done
printf '%-8s %7d %5d\n' total "$total" "$total_files"
