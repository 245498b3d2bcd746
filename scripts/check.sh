#!/bin/sh
# Tier-1 gate: build, lint, test.  Run from the repository root.
#
# `dune build @lint` runs the seqdiv-lint executable over lib/ and
# bin/; it exits non-zero on any error-severity finding, which fails
# the alias and therefore this script.  See docs/LINTING.md.
#
# Then: every test binary under a time budget; the golden fixtures,
# rebuilt from the paper's outputs (`seqdiv full`, `ablation`,
# `extensions`) and diffed; the paper's maps at its own 1M scale; the
# crash-safety, deadline and chaos stages of the paper run; the
# examples; the flat-model and parse-error smoke tests; and the serve
# stages (kill/resume, freeze, shard and connection counts, adaptive
# thresholds, chaos).
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
  --baseline lint-baseline.txt lib bin > _build/lint.sarif
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

bin=./_build/default/bin/main.exe

# Golden fixtures must match what the current tree renders: regenerate
# into a scratch directory and diff.  An intentional change is promoted
# with scripts/promote-golden.sh and reviewed as part of the commit.
# full.txt is the default-scale paper run's stdout: every detector's
# map and every printed paper number; ablation.txt and extensions.txt
# are the A1-A8 and E1-E4 (plus static-vs-adaptive) sections.
mkdir -p "$tmp/golden"
"$bin" full -j 4 > "$tmp/golden/full.txt"
"$bin" ablation -j 4 > "$tmp/golden/ablation.txt"
"$bin" extensions -j 4 > "$tmp/golden/extensions.txt"
SEQDIV_GOLDEN_PROMOTE=1 SEQDIV_GOLDEN_DIR="$tmp/golden" \
  ./_build/default/test/test_golden.exe > /dev/null
SEQDIV_GOLDEN_PROMOTE=1 SEQDIV_GOLDEN_DIR="$tmp/golden" \
  ./_build/default/test/test_lint_golden.exe > /dev/null
SEQDIV_GOLDEN_PROMOTE=1 SEQDIV_GOLDEN_DIR="$tmp/golden" \
  ./_build/default/test/test_serve_chaos.exe > /dev/null
SEQDIV_GOLDEN_PROMOTE=1 SEQDIV_GOLDEN_DIR="$tmp/golden" \
  ./_build/default/test/test_adaptive_golden.exe > /dev/null
# serve_static.txt and serve_adaptive.txt are the serve stages' incident
# logs: those stages below diff them.
diff -ru -x serve_static.txt -x serve_adaptive.txt test/golden "$tmp/golden"
echo "golden fixtures: OK"

# The paper's own scale: at 1M training elements every map and table
# equals the default-scale run's.  Only Figure 2's sample of the
# injected stream and its incident span sit at other positions.
"$bin" full -j 4 --train-len 1000000 > "$tmp/full-1m.out"
not_figure2_position() { grep -v -e '^  stream: ' -e '^  incident span: ' "$1"; }
not_figure2_position "$tmp/golden/full.txt" > "$tmp/full.scale"
not_figure2_position "$tmp/full-1m.out" > "$tmp/full-1m.scale"
diff -u "$tmp/full.scale" "$tmp/full-1m.scale"
echo "paper scale: OK"

# Crash-safety smoke test: kill a journalled run mid-flight, resume it
# at jobs=1 and jobs=4, and demand byte-identical stdout to an
# uninterrupted run (the golden stage's, just checked).
cp "$tmp/golden/full.txt" "$tmp/fresh.out"

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

# And the flags are validated before anything runs: a hang-fated task
# only ends when a deadline is armed.
status=0
"$bin" full --deadline-ms 0 > /dev/null 2>&1 || status=$?
[ "$status" -eq 2 ] || {
  echo "deadline validation: expected exit 2, got $status" >&2; exit 1; }
status=0
"$bin" full --chaos 7 --chaos-hang 0.1 > /dev/null 2>&1 || status=$?
[ "$status" -eq 2 ] || {
  echo "chaos-hang validation: expected exit 2, got $status" >&2; exit 1; }
echo "deadline smoke test: OK"

# Chaos on the paper run: under seeded transient faults every printed
# paper number must equal the fault-free run's, and faults must
# actually have been injected.
"$bin" full -j 4 --chaos 7 --trace > "$tmp/chaos.out" 2> "$tmp/chaos.err"
diff -u "$tmp/golden/full.txt" "$tmp/chaos.out"
grep -q 'supervision: [1-9][0-9]* fault(s) injected' "$tmp/chaos.err"
# Fatal faults fail cells, and `ablation` and `extensions` then report a
# partial failure and exit 2, as `map` and `full` do.
status=0
"$bin" extensions --which e1 --train-len 20000 --background-len 3000 \
  --chaos 7 --chaos-rate 0 --chaos-fatal 0.3 \
  > /dev/null 2> "$tmp/sections.err" || status=$?
[ "$status" -eq 2 ] || {
  echo "sections partial failure: expected exit 2, got $status" >&2; exit 1; }
grep -q '^seqdiv: partial failure: [1-9][0-9]* cell(s) failed' \
  "$tmp/sections.err"
echo "paper chaos test: OK"

# Example programs: `dune build @all` compiles them, this runs them.
# Each must exit 0 and print no failed self-check: artifact_workflow
# answers its checks with "yes" or "NO" and exits 0 either way.
for e in ./_build/default/examples/*.exe; do
  name=$(basename "$e" .exe)
  TMPDIR="$tmp" "$e" > "$tmp/example.out" 2>&1 || {
    cat "$tmp/example.out"; echo "example $name failed" >&2; exit 1; }
  if grep -q ': NO' "$tmp/example.out"; then
    cat "$tmp/example.out"
    echo "example $name: a self-check printed NO" >&2
    exit 1
  fi
done
echo "examples: OK"

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

# A malformed input file is the user's error: exit 1 and one line on
# stderr with the parser's message, not cmdliner's internal error (125).
# The model's header declares a window no line of it could hold.
printf 'garbage\n' > "$tmp/bad.trace"
printf '#seqdiv-stide 1 window=1000000000000\n1 0,1,2\n' > "$tmp/huge.model"
expect_parse_error() {
  message=$1; shift
  status=0
  "$@" > /dev/null 2> "$tmp/parse.err" || status=$?
  [ "$status" -eq 1 ] || {
    cat "$tmp/parse.err"
    echo "parse-error smoke test: expected exit 1, got $status: $*" >&2
    exit 1; }
  grep -qxF "$message" "$tmp/parse.err" || {
    cat "$tmp/parse.err"
    echo "parse-error smoke test: expected '$message'" >&2
    exit 1; }
}
expect_parse_error 'seqdiv: Trace_io.of_string: malformed header' \
  "$bin" detect -d stide --window 3 \
  --train "$tmp/bad.trace" --test "$tmp/bad.trace"
expect_parse_error \
  "seqdiv: Model_io.load_stide: window=1000000000000 exceeds the input's 45 bytes" \
  "$bin" model compile --model "$tmp/huge.model" --out "$tmp/huge.flat"
echo "parse-error smoke test: OK"

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
# The run must alarm, or the byte-compares below prove nothing; and its
# log must be the one pinned in test/golden/ (scripts/promote-golden.sh
# rewrites it), so a change that alters every run alike still shows.
[ -s "$tmp/serve-ref.log" ] || {
  echo "serve smoke: empty incident log" >&2; exit 1; }
diff test/golden/serve_static.txt "$tmp/serve-ref.log"

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
diff test/golden/serve_adaptive.txt "$tmp/serve-adapt-ref.log"

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

# Code lines of lib, bin and test, for the change log: output only,
# never a gate.
echo "code lines (scripts/loc.sh):"
./scripts/loc.sh || true
