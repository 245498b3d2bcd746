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
bin=./_build/default/bin/main.exe
"$bin" full -j 4 > test/golden/full.txt
"$bin" ablation -j 4 > test/golden/ablation.txt
"$bin" extensions -j 4 > test/golden/extensions.txt

# serve_static.txt and serve_adaptive.txt are the incident logs of
# scripts/check.sh's two reference serve runs: the same models (stide
# and markov, window 6, on the same synthetic traces), shard count and
# serve-bench traffic; the adaptive run adds --alarm-budget 0.05.
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
"$bin" synth --train-len 20000 --out "$tmp/train.trace" > /dev/null
"$bin" synth --train-len 3000 --seed 9 --out "$tmp/probe.trace" > /dev/null
for d in stide markov; do
  "$bin" detect -d "$d" --window 6 \
    --train "$tmp/train.trace" --test "$tmp/probe.trace" \
    --save-model "$tmp/$d.model" > /dev/null
  "$bin" model compile --model "$tmp/$d.model" --out "$tmp/$d.flat" > /dev/null
done
serve_log() {
  model=$1; log=$2; shift 2
  "$bin" serve --model "$tmp/$model.flat" --socket "$tmp/serve.sock" \
    --shards 2 "$@" > /dev/null 2>&1 &
  serve_pid=$!
  "$bin" serve-bench --socket "$tmp/serve.sock" --sessions 48 \
    --session-length 1000 --rounds 40 --train-len 20000 --batch-events 64 \
    --inflight 2 --incident-log "$log" --quit > /dev/null
  wait "$serve_pid"
}
serve_log stide test/golden/serve_static.txt
serve_log markov test/golden/serve_adaptive.txt --alarm-budget 0.05

git --no-pager diff --stat -- test/golden
