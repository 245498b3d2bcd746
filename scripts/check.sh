#!/bin/sh
# Tier-1 gate: build, lint, test.  Run from the repository root.
#
# `dune build @lint` runs the seqdiv-lint executable over lib/, bin/
# and bench/; it exits non-zero on any error-severity finding, which
# fails the alias and therefore this script.  See docs/LINTING.md.
set -eu

cd "$(dirname "$0")/.."

dune build
dune build @all
dune build @lint
dune runtest

# Whole-tree lint, gated by the checked-in baseline: the SARIF artifact
# lands in _build/lint.sarif for CI upload, the exit status fails this
# script on any error-severity finding not already in
# lint-baseline.txt, and the wall time is recorded against the 10 s
# budget the whole-program analysis is designed for.
lint_start=$(date +%s)
./_build/default/bin/lint/seqdiv_lint.exe --format sarif \
  --baseline lint-baseline.txt lib bin bench > _build/lint.sarif
lint_elapsed=$(( $(date +%s) - lint_start ))
if [ "$lint_elapsed" -gt 10 ]; then
  echo "lint time budget exceeded: ${lint_elapsed}s (> 10 s)" >&2
  exit 1
fi
echo "whole-tree lint: ${lint_elapsed}s, sarif in _build/lint.sarif"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# Every test binary, run whole, under a wall-clock budget: a suite
# that creeps past 120 s is a regression in its own right (the
# deadline/chaos suites are all virtual-clock, nothing here should
# ever sleep).  This subsumes the targeted `dune exec test/...`
# invocations this script used to carry.
budget() {
  name=$1; shift
  start=$(date +%s)
  "$@"
  elapsed=$(( $(date +%s) - start ))
  if [ "$elapsed" -gt 120 ]; then
    echo "time budget exceeded: $name took ${elapsed}s (> 120 s)" >&2
    exit 1
  fi
  echo "suite $name: ${elapsed}s"
}

for t in ./_build/default/test/test_*.exe; do
  SEQDIV_GOLDEN_DIR=test/golden budget "$(basename "$t" .exe)" "$t" \
    > "$tmp/suite.out" 2>&1 || { cat "$tmp/suite.out"; exit 1; }
  tail -1 "$tmp/suite.out"
done

# Golden fixtures must match what the current tree renders: regenerate
# into a scratch directory and diff.  An intentional change is promoted
# with scripts/promote-golden.sh and reviewed as part of the commit.
mkdir -p "$tmp/golden"
SEQDIV_GOLDEN_PROMOTE=1 SEQDIV_GOLDEN_DIR="$tmp/golden" \
  ./_build/default/test/test_golden.exe > /dev/null
SEQDIV_GOLDEN_PROMOTE=1 SEQDIV_GOLDEN_DIR="$tmp/golden" \
  ./_build/default/test/test_lint_golden.exe > /dev/null
SEQDIV_GOLDEN_PROMOTE=1 SEQDIV_GOLDEN_DIR="$tmp/golden" \
  ./_build/default/test/test_serve_chaos.exe > /dev/null
SEQDIV_GOLDEN_PROMOTE=1 SEQDIV_GOLDEN_DIR="$tmp/golden" \
  ./_build/default/test/test_adaptive_golden.exe > /dev/null
diff -ru test/golden "$tmp/golden"
echo "golden fixtures: OK"

bin=./_build/default/bin/main.exe

# Crash-safety smoke test: kill a journalled run mid-flight, resume it
# at jobs=1 and jobs=4, and demand byte-identical stdout to an
# uninterrupted run.
"$bin" full -j 4 > "$tmp/fresh.out"

"$bin" full -j 4 --journal "$tmp/run.journal" > /dev/null 2>&1 &
pid=$!
# Wait for the first crash-safe flush so the kill lands mid-run with
# completed cells on disk, then pull the plug.
while [ ! -s "$tmp/run.journal" ] && kill -0 "$pid" 2>/dev/null; do
  sleep 0.2
done
kill "$pid" 2>/dev/null || true
wait "$pid" 2>/dev/null || true

for jobs in 1 4; do
  "$bin" full -j "$jobs" --journal "$tmp/run.journal" --resume \
    > "$tmp/resumed-$jobs.out" 2> "$tmp/resumed-$jobs.err"
  grep -q '^journal: recovered' "$tmp/resumed-$jobs.err"
  diff -u "$tmp/fresh.out" "$tmp/resumed-$jobs.out"
done
echo "kill-resume smoke test: OK"

# Hung-cell smoke test: a 1 ms wall-clock budget is below any real
# training task, so cells must degrade to rendered timeouts and the
# run must exit 2 (partial failure) instead of hanging.
status=0
"$bin" full -j 4 --deadline-ms 1 > "$tmp/deadline.out" 2>&1 || status=$?
[ "$status" -eq 2 ] || {
  echo "deadline smoke test: expected exit 2, got $status" >&2; exit 1; }
grep -q 'Deadline.Exceeded(budget=1ms)' "$tmp/deadline.out"
grep -q 'cell(s) FAILED' "$tmp/deadline.out"

# And the flag is validated before anything runs.
status=0
"$bin" full --deadline-ms 0 > /dev/null 2>&1 || status=$?
[ "$status" -eq 2 ] || {
  echo "deadline validation: expected exit 2, got $status" >&2; exit 1; }
echo "deadline smoke test: OK"

# Paper-reproduction smoke test (bench/main.exe, each retained mode
# once): the full reproduction must complete; under seeded transient
# faults the supervised grid must put every cell where the fault-free
# run does (and faults must actually have been injected); the
# static-vs-adaptive comparison must report both alarm budgets.
paper=./_build/default/bench/main.exe
"$paper" -j 2 > /dev/null
small="--train-len 20000 --background-len 3000"
# shellcheck disable=SC2086  # small is a word list by design
"$paper" --grid-only $small > "$tmp/grid.out"
# shellcheck disable=SC2086
"$paper" --grid-only --chaos --trace $small > "$tmp/grid-chaos.out" \
  2> "$tmp/grid-chaos.err"
grep -q 'supervision: [1-9][0-9]* fault(s) injected' "$tmp/grid-chaos.err"
grep ': capable ' "$tmp/grid.out" > "$tmp/grid.maps"
grep ': capable ' "$tmp/grid-chaos.out" > "$tmp/grid-chaos.maps"
[ "$(wc -l < "$tmp/grid.maps")" -eq 3 ] || {
  echo "paper smoke test: expected 3 map summaries" >&2; exit 1; }
diff "$tmp/grid.maps" "$tmp/grid-chaos.maps"
# shellcheck disable=SC2086
"$paper" --adaptive $small > "$tmp/adaptive.out"
for budget in 0.01 0.05; do
  grep -q "^adaptive_b${budget}_adaptive_alarm_rate: " "$tmp/adaptive.out"
done
echo "paper smoke test: OK"

# Flat-model smoke test: train + save a text model, compile it to the
# mmap-ready flat binary, then score a trace through both — the text
# model's own trie descent and the mmap-loaded automaton.  `model
# score` prints lossless hex floats, so a plain byte diff is the
# bit-identity check of the deployment pipeline.
"$bin" synth --train-len 20000 --out "$tmp/train.trace" > /dev/null
"$bin" synth --train-len 3000 --seed 9 --out "$tmp/probe.trace" > /dev/null
for d in stide markov; do
  "$bin" detect -d "$d" --window 6 \
    --train "$tmp/train.trace" --test "$tmp/probe.trace" \
    --save-model "$tmp/$d.model" > /dev/null
  "$bin" model compile --model "$tmp/$d.model" --out "$tmp/$d.flat" > /dev/null
  "$bin" model score --model "$tmp/$d.model" --trace "$tmp/probe.trace" \
    > "$tmp/$d.text.scores"
  "$bin" model score --model "$tmp/$d.flat" --trace "$tmp/probe.trace" \
    > "$tmp/$d.flat.scores"
  diff "$tmp/$d.text.scores" "$tmp/$d.flat.scores"
done
echo "flat-model smoke test: OK"

# Serve smoke test: the sharded streaming service must produce the
# same per-session incident log whether or not the server is SIGKILLed
# mid-stream and resumed from its shard journals (the client reconnects
# and resends unacknowledged batches; journalled shards re-acknowledge
# duplicates without re-applying them).
serve_sock="$tmp/serve.sock"
bench_args="--sessions 48 --session-length 1000 --rounds 40 \
  --train-len 20000 --batch-events 64 --inflight 2"

# Reference: an uninterrupted journalled run.
mkdir -p "$tmp/serve-ref"
"$bin" serve --model "$tmp/stide.flat" --socket "$serve_sock" --shards 2 \
  --journal-dir "$tmp/serve-ref" > /dev/null 2>&1 &
serve_pid=$!
# shellcheck disable=SC2086  # bench_args is a word list by design
"$bin" serve-bench --socket "$serve_sock" $bench_args \
  --incident-log "$tmp/serve-ref.log" --quit > /dev/null
wait "$serve_pid"

# Interrupted: SIGKILL the server once shard 0 has committed state,
# restart it with --resume, and let the client ride through.
mkdir -p "$tmp/serve-kill"
"$bin" serve --model "$tmp/stide.flat" --socket "$serve_sock" --shards 2 \
  --journal-dir "$tmp/serve-kill" > /dev/null 2>&1 &
serve_pid=$!
# shellcheck disable=SC2086
"$bin" serve-bench --socket "$serve_sock" $bench_args \
  --incident-log "$tmp/serve-kill.log" --reconnect --quit > /dev/null 2>&1 &
client_pid=$!
while [ "$(cat "$tmp/serve-kill/shard-0.journal" 2>/dev/null | wc -c)" -lt 4000 ] \
  && kill -0 "$client_pid" 2>/dev/null; do
  sleep 0.02
done
if kill -0 "$client_pid" 2>/dev/null; then
  kill -9 "$serve_pid" 2>/dev/null || true
  wait "$serve_pid" 2>/dev/null || true
  "$bin" serve --model "$tmp/stide.flat" --socket "$serve_sock" --shards 2 \
    --journal-dir "$tmp/serve-kill" --resume > /dev/null 2>&1 &
  serve_pid=$!
else
  # The whole run outpaced the kill trigger (can only happen on a
  # absurdly fast box): fall through to the plain comparison.
  echo "serve kill-resume: client finished before the kill; degraded to plain diff" >&2
fi
wait "$client_pid"
wait "$serve_pid" 2>/dev/null || true
diff "$tmp/serve-ref.log" "$tmp/serve-kill.log"

# Frozen client: freeze the client (SIGSTOP) once shard 0 has committed
# state, SIGKILL the server and restart it with --resume while the
# client is frozen, then thaw it (SIGCONT).  The client first reads the
# acks already in its socket buffer, then writes its next batch into
# the dead connection.  That write must not kill it (SIGPIPE): the
# next read reports the death, and the client reconnects and resends.
mkdir -p "$tmp/serve-freeze"
"$bin" serve --model "$tmp/stide.flat" --socket "$serve_sock" --shards 2 \
  --journal-dir "$tmp/serve-freeze" > /dev/null 2>&1 &
serve_pid=$!
# shellcheck disable=SC2086
"$bin" serve-bench --socket "$serve_sock" $bench_args \
  --incident-log "$tmp/serve-freeze.log" --reconnect --quit > /dev/null 2>&1 &
client_pid=$!
while [ "$(cat "$tmp/serve-freeze/shard-0.journal" 2>/dev/null | wc -c)" -lt 4000 ] \
  && kill -0 "$client_pid" 2>/dev/null; do
  sleep 0.02
done
kill -STOP "$client_pid" 2>/dev/null || true
# No fallback to a plain diff: a client that cannot be frozen (it has
# already exited) fails the stage.
frozen=no
for _ in 1 2 3 4 5 6 7 8 9 10; do
  case "$(ps -o stat= -p "$client_pid" 2>/dev/null)" in
    T*) frozen=yes; break ;;
    "" | Z*) break ;;
  esac
  sleep 0.02
done
if [ "$frozen" != yes ]; then
  echo "serve freeze-resume: client exited before the freeze" >&2
  kill -9 "$serve_pid" 2>/dev/null || true
  exit 1
fi
kill -9 "$serve_pid" 2>/dev/null || true
wait "$serve_pid" 2>/dev/null || true
"$bin" serve --model "$tmp/stide.flat" --socket "$serve_sock" --shards 2 \
  --journal-dir "$tmp/serve-freeze" --resume > /dev/null 2>&1 &
serve_pid=$!
kill -CONT "$client_pid"
status=0
wait "$client_pid" || status=$?
if [ "$status" -ne 0 ]; then
  echo "serve freeze-resume: client exited with status $status" >&2
  kill -9 "$serve_pid" 2>/dev/null || true
  exit 1
fi
wait "$serve_pid" 2>/dev/null || true
diff "$tmp/serve-ref.log" "$tmp/serve-freeze.log"

# The log is also invariant in the shard count (determinism contract)...
"$bin" serve --model "$tmp/stide.flat" --socket "$serve_sock" --shards 4 \
  > /dev/null 2>&1 &
serve_pid=$!
# shellcheck disable=SC2086
"$bin" serve-bench --socket "$serve_sock" $bench_args \
  --incident-log "$tmp/serve-4.log" --quit > /dev/null
wait "$serve_pid"
diff "$tmp/serve-ref.log" "$tmp/serve-4.log"

# ...and in the connection count: three connections split the sessions
# between them.
"$bin" serve --model "$tmp/stide.flat" --socket "$serve_sock" --shards 2 \
  > /dev/null 2>&1 &
serve_pid=$!
# shellcheck disable=SC2086
"$bin" serve-bench --socket "$serve_sock" $bench_args --connections 3 \
  --incident-log "$tmp/serve-3conn.log" --quit > /dev/null
wait "$serve_pid"
diff "$tmp/serve-ref.log" "$tmp/serve-3conn.log"
echo "serve kill-resume smoke test: OK"

# Adaptive-threshold serve smoke: with --alarm-budget each session's
# controller (threshold + quantile sketch) rides in the shard
# journals, so the incident log must stay byte-identical across a
# SIGKILL/--resume cycle and across shard counts even while
# thresholds move.  Markov's graded scores (unlike Stide's 0/1) are
# what give the controller a distribution worth tracking.
mkdir -p "$tmp/serve-adapt-ref"
"$bin" serve --model "$tmp/markov.flat" --socket "$serve_sock" --shards 2 \
  --alarm-budget 0.05 --journal-dir "$tmp/serve-adapt-ref" > /dev/null 2>&1 &
serve_pid=$!
# shellcheck disable=SC2086
"$bin" serve-bench --socket "$serve_sock" $bench_args \
  --incident-log "$tmp/serve-adapt-ref.log" --quit > /dev/null
wait "$serve_pid"
# The run must actually alarm, or the byte-compares below prove nothing.
[ -s "$tmp/serve-adapt-ref.log" ] || {
  echo "adaptive serve smoke: empty incident log" >&2; exit 1; }

mkdir -p "$tmp/serve-adapt-kill"
"$bin" serve --model "$tmp/markov.flat" --socket "$serve_sock" --shards 2 \
  --alarm-budget 0.05 --journal-dir "$tmp/serve-adapt-kill" > /dev/null 2>&1 &
serve_pid=$!
# shellcheck disable=SC2086
"$bin" serve-bench --socket "$serve_sock" $bench_args \
  --incident-log "$tmp/serve-adapt-kill.log" --reconnect --quit > /dev/null 2>&1 &
client_pid=$!
while [ "$(cat "$tmp/serve-adapt-kill/shard-0.journal" 2>/dev/null | wc -c)" -lt 4000 ] \
  && kill -0 "$client_pid" 2>/dev/null; do
  sleep 0.02
done
if kill -0 "$client_pid" 2>/dev/null; then
  kill -9 "$serve_pid" 2>/dev/null || true
  wait "$serve_pid" 2>/dev/null || true
  "$bin" serve --model "$tmp/markov.flat" --socket "$serve_sock" --shards 2 \
    --alarm-budget 0.05 --journal-dir "$tmp/serve-adapt-kill" --resume \
    > /dev/null 2>&1 &
  serve_pid=$!
else
  echo "adaptive serve kill-resume: client finished before the kill; degraded to plain diff" >&2
fi
wait "$client_pid"
wait "$serve_pid" 2>/dev/null || true
diff "$tmp/serve-adapt-ref.log" "$tmp/serve-adapt-kill.log"

"$bin" serve --model "$tmp/markov.flat" --socket "$serve_sock" --shards 4 \
  --alarm-budget 0.05 > /dev/null 2>&1 &
serve_pid=$!
# shellcheck disable=SC2086
"$bin" serve-bench --socket "$serve_sock" $bench_args \
  --incident-log "$tmp/serve-adapt-4.log" --quit > /dev/null
wait "$serve_pid"
diff "$tmp/serve-adapt-ref.log" "$tmp/serve-adapt-4.log"
echo "adaptive serve kill-resume smoke test: OK"

# Chaos-serve smoke test: with seeded transient shard crashes injected
# mid-stream, the supervisor must restart each crashed shard from its
# journal and the per-session incident log must stay byte-identical to
# the chaos-free reference (the determinism contract under Transient
# fates).  The client rides through rejections via the adaptive
# retry_after_ms hint.
mkdir -p "$tmp/serve-chaos"
"$bin" serve --model "$tmp/stide.flat" --socket "$serve_sock" --shards 2 \
  --journal-dir "$tmp/serve-chaos" --chaos-serve 1234 --chaos-crash 0.10 \
  > "$tmp/serve-chaos.out" 2>&1 &
serve_pid=$!
# shellcheck disable=SC2086
"$bin" serve-bench --socket "$serve_sock" $bench_args --reconnect \
  --incident-log "$tmp/serve-chaos.log" --quit > /dev/null
wait "$serve_pid"
diff "$tmp/serve-ref.log" "$tmp/serve-chaos.log"
# The run must actually have exercised the supervisor.
grep -q 'restart' "$tmp/serve-chaos.out"
echo "chaos-serve smoke test: OK"
