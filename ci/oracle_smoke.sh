#!/usr/bin/env bash
# Oracle smoke: pipe the litmus known-answer corpus through the real
# cmd/check binary in every ingestion mode — text file, binary file,
# stdin, parallel fan-out, cold/warm durable store, and warm again in
# parallel — and byte-diff the NDJSON verdicts against the committed
# golden (ci/oracle_golden.json). The golden is what the in-process checker
# produces (cmd/check's own tests assert that equivalence), so a diff
# here means the external-oracle path drifted from the library.
#
# cmd/check exits 1 when any verdict is INVALID; the corpus contains
# forbidden outcomes on purpose, so 1 is the expected status and only
# 2 (operational error) fails the smoke.
set -euo pipefail

WORKDIR=$(mktemp -d)
trap 'rm -rf "$WORKDIR"' EXIT

GOLDEN=ci/oracle_golden.json

go build -o "$WORKDIR" ./cmd/check

# check_json <out> <args...>: run check -json, requiring exit 0 or 1.
check_json() {
  out=$1
  shift
  status=0
  "$WORKDIR/check" -json "$@" >"$out" || status=$?
  if [ "$status" -gt 1 ]; then
    echo "FAIL: check $* exited $status" >&2
    exit 1
  fi
}

"$WORKDIR/check" -emit-corpus text >"$WORKDIR/corpus.mctrace"
"$WORKDIR/check" -emit-corpus binary >"$WORKDIR/corpus.mctrace.bin"

check_json "$WORKDIR/text.json" -model all "$WORKDIR/corpus.mctrace"
if ! cmp "$GOLDEN" "$WORKDIR/text.json"; then
  echo "FAIL: text-corpus verdicts differ from $GOLDEN" >&2
  exit 1
fi

check_json "$WORKDIR/binary.json" -model all "$WORKDIR/corpus.mctrace.bin"
cmp "$GOLDEN" "$WORKDIR/binary.json" || { echo "FAIL: binary-corpus verdicts differ" >&2; exit 1; }

check_json "$WORKDIR/stdin.json" -model all - <"$WORKDIR/corpus.mctrace"
cmp "$GOLDEN" "$WORKDIR/stdin.json" || { echo "FAIL: stdin verdicts differ" >&2; exit 1; }

check_json "$WORKDIR/parallel.json" -model all -parallel 4 "$WORKDIR/corpus.mctrace"
cmp "$GOLDEN" "$WORKDIR/parallel.json" || { echo "FAIL: parallel verdicts differ" >&2; exit 1; }

# Durable store: a cold run populates the store, a warm run answers
# from it. Verdict bytes must not move, and the warm run must report
# durable hits on its progress line.
status=0
"$WORKDIR/check" -json -model all -store "$WORKDIR/verdicts" "$WORKDIR/corpus.mctrace" >"$WORKDIR/cold.json" || status=$?
[ "$status" -le 1 ] || { echo "FAIL: cold store run exited $status" >&2; exit 1; }
status=0
"$WORKDIR/check" -json -model all -store "$WORKDIR/verdicts" -progress "$WORKDIR/corpus.mctrace" >"$WORKDIR/warm.json" 2>"$WORKDIR/warm.err" || status=$?
[ "$status" -le 1 ] || { echo "FAIL: warm store run exited $status" >&2; exit 1; }
cmp "$GOLDEN" "$WORKDIR/cold.json" || { echo "FAIL: cold-store verdicts differ" >&2; exit 1; }
cmp "$GOLDEN" "$WORKDIR/warm.json" || { echo "FAIL: warm-store verdicts differ" >&2; exit 1; }
if ! grep -q "durable" "$WORKDIR/warm.err"; then
  echo "FAIL: warm store run reported no durable hits:" >&2
  cat "$WORKDIR/warm.err" >&2
  exit 1
fi

# Warm and parallel: four workers' Checkers share each trace's signature
# (whichever signs it first, the others wait for it) and answer from the
# store. Every check must be a durable hit.
status=0
"$WORKDIR/check" -json -model all -parallel 4 -store "$WORKDIR/verdicts" -progress "$WORKDIR/corpus.mctrace.bin" >"$WORKDIR/warm-parallel.json" 2>"$WORKDIR/warm-parallel.err" || status=$?
[ "$status" -le 1 ] || { echo "FAIL: warm parallel store run exited $status" >&2; exit 1; }
cmp "$GOLDEN" "$WORKDIR/warm-parallel.json" || { echo "FAIL: warm parallel store verdicts differ" >&2; exit 1; }
if ! grep -Eq 'collective checking: ([0-9]+) checks, .*, \1 durable' "$WORKDIR/warm-parallel.err"; then
  echo "FAIL: warm parallel store run did not answer every check from the store:" >&2
  cat "$WORKDIR/warm-parallel.err" >&2
  exit 1
fi

lines=$(wc -l <"$GOLDEN")
echo "OK: $lines oracle verdicts byte-identical across text/binary/stdin/parallel/store/warm-parallel paths"
