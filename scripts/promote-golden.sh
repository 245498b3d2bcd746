#!/bin/sh
# Regenerate the golden fixtures under test/golden/ after an
# intentional rendering change.  The new fixtures are part of the
# change: review the diff this prints like any other code.
set -eu

cd "$(dirname "$0")/.."

dune build test/test_golden.exe test/test_lint_golden.exe \
  test/test_serve_chaos.exe test/test_adaptive_golden.exe bin/main.exe
SEQDIV_GOLDEN_PROMOTE=1 SEQDIV_GOLDEN_DIR=test/golden \
  ./_build/default/test/test_golden.exe
SEQDIV_GOLDEN_PROMOTE=1 SEQDIV_GOLDEN_DIR=test/golden \
  ./_build/default/test/test_lint_golden.exe
SEQDIV_GOLDEN_PROMOTE=1 SEQDIV_GOLDEN_DIR=test/golden \
  ./_build/default/test/test_serve_chaos.exe
SEQDIV_GOLDEN_PROMOTE=1 SEQDIV_GOLDEN_DIR=test/golden \
  ./_build/default/test/test_adaptive_golden.exe
./_build/default/bin/main.exe full -j 4 > test/golden/full.txt
./_build/default/bin/main.exe ablation -j 4 > test/golden/ablation.txt
./_build/default/bin/main.exe extensions -j 4 > test/golden/extensions.txt

git --no-pager diff --stat -- test/golden
