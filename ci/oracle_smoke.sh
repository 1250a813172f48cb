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

# A malformed trace of the canonical shape (its one read names a source
# whose value it did not read) is signed without being built, so it
# reaches the warm store's lookup before it fails to build. Appended to
# the corpus, it must fail the run with the same positioned error against
# the warm store as against a cold one, exit 2 both times.
cp "$WORKDIR/corpus.mctrace" "$WORKDIR/malformed.mctrace"
printf 'trace malformed\nthread 0\nw 0x100 1\nthread 1\nr 0x100 2\nrf 1:0 0:0\nco 0x100 0:0\nend\n' >>"$WORKDIR/malformed.mctrace"
for store in verdicts cold-verdicts; do
  status=0
  "$WORKDIR/check" -json -model all -store "$WORKDIR/$store" "$WORKDIR/malformed.mctrace" >/dev/null 2>"$WORKDIR/$store.err" || status=$?
  [ "$status" -eq 2 ] || { echo "FAIL: malformed trace against $store exited $status, want 2" >&2; cat "$WORKDIR/$store.err" >&2; exit 1; }
  grep '^check: trace [0-9]*:' "$WORKDIR/$store.err" >"$WORKDIR/$store.lines" || true
done
if ! [ -s "$WORKDIR/verdicts.lines" ] || ! cmp -s "$WORKDIR/verdicts.lines" "$WORKDIR/cold-verdicts.lines"; then
  echo "FAIL: the malformed trace's error differs between the warm and the cold store:" >&2
  cat "$WORKDIR/verdicts.err" "$WORKDIR/cold-verdicts.err" >&2
  exit 1
fi

# A binary corpus cut inside its last frame must fail the run with one
# error naming the trace and the byte where the stream ends early,
# exit 2, alike against the warm store and a cold one.
size=$(wc -c <"$WORKDIR/corpus.mctrace.bin")
head -c $((size - 7)) "$WORKDIR/corpus.mctrace.bin" >"$WORKDIR/cut.bin"
for store in verdicts cut-cold-verdicts; do
  status=0
  "$WORKDIR/check" -json -model all -store "$WORKDIR/$store" "$WORKDIR/cut.bin" >/dev/null 2>"$WORKDIR/$store.cut.err" || status=$?
  [ "$status" -eq 2 ] || { echo "FAIL: cut binary corpus against $store exited $status, want 2" >&2; cat "$WORKDIR/$store.cut.err" >&2; exit 1; }
  grep '^check: .*cut\.bin: trace: binary: trace [0-9]*, byte [0-9]*: truncated .*: unexpected EOF$' "$WORKDIR/$store.cut.err" >"$WORKDIR/$store.cut.lines" || true
done
if ! [ -s "$WORKDIR/verdicts.cut.lines" ] || ! cmp -s "$WORKDIR/verdicts.cut.lines" "$WORKDIR/cut-cold-verdicts.cut.lines"; then
  echo "FAIL: the cut binary corpus's error is not positioned, or differs between the warm and the cold store:" >&2
  cat "$WORKDIR/verdicts.cut.err" "$WORKDIR/cut-cold-verdicts.cut.err" >&2
  exit 1
fi

lines=$(wc -l <"$GOLDEN")
echo "OK: $lines oracle verdicts byte-identical across text/binary/stdin/parallel/store/warm-parallel paths; a malformed trace and a cut binary corpus fail alike warm and cold"
