#!/usr/bin/env bash
# Service smoke: start a workerless mcversid, attach one remote
# mcversi-worker, run a 2-scenario campaign through the service, and
# byte-diff the merged result against the same campaign run locally.
# This is the distributed-equivalence guarantee exercised through the
# real binaries and a real TCP socket (the in-process variant lives in
# internal/service/equiv_test.go).
set -euo pipefail

WORKDIR=$(mktemp -d)
# xargs -r instead of an unquoted $(jobs -p): no word-splitting lint
# (SC2046), and no kill usage error when there are no jobs left.
trap 'jobs -p | xargs -r kill 2>/dev/null; rm -rf "$WORKDIR"' EXIT

ADDR=127.0.0.1:8473
URL="http://$ADDR"
CAMPAIGN=(-scenario mesi-tso,mesi-pso -gen rand -budget 30 -samples 2 -seed 11 -mem 1024)

go build -o "$WORKDIR" ./cmd/mcversi ./cmd/mcversid ./cmd/mcversi-worker

# Negative counts are usage errors (exit 2), never silently replaced by
# defaults.
usage_error() {
  local code=0
  "$@" 2>/dev/null || code=$?
  if [ "$code" != 2 ]; then
    echo "FAIL: '$*' exited $code, want 2" >&2
    exit 1
  fi
}
usage_error "$WORKDIR/mcversid" -workers -1
usage_error "$WORKDIR/mcversi-worker" -server "$URL" -poll -1s

"$WORKDIR/mcversid" -listen "$ADDR" -workers 0 -shard-size 2 &

for i in $(seq 1 100); do
  if curl -sf "$URL/v1/healthz" >/dev/null 2>&1; then break; fi
  [ "$i" = 100 ] && { echo "mcversid never became healthy" >&2; exit 1; }
  sleep 0.1
done

# A client that stalls inside its request line must not hold its
# connection: mcversid's 5 s ReadHeaderTimeout closes it, so reading
# the socket hits EOF well inside 5 s plus slack.
exec 3<>"/dev/tcp/${ADDR%:*}/${ADDR#*:}"
printf 'GET /v1/healthz HT' >&3
start=$SECONDS
if ! timeout 10 cat <&3 >/dev/null; then
  echo "FAIL: mcversid kept a stalled connection open for 10 s" >&2
  exit 1
fi
exec 3<&-
echo "OK: mcversid closed a stalled connection after $((SECONDS - start)) s"

"$WORKDIR/mcversi-worker" -server "$URL" -name ci-smoke -poll 100ms &

"$WORKDIR/mcversi" "${CAMPAIGN[@]}" -remote "$URL" -progress -merged-out "$WORKDIR/remote.json" 2>"$WORKDIR/progress.txt" || {
  echo "FAIL: remote campaign failed:" >&2
  cat "$WORKDIR/progress.txt" >&2
  exit 1
}
"$WORKDIR/mcversi" "${CAMPAIGN[@]}" -merged-out "$WORKDIR/local.json"

if ! cmp "$WORKDIR/local.json" "$WORKDIR/remote.json"; then
  echo "FAIL: distributed merged result differs from local bytes" >&2
  exit 1
fi
echo "OK: distributed and local merged results are byte-identical ($(wc -c <"$WORKDIR/local.json") bytes)"

# -progress reads the service's event log: one done line per item
# (2 scenarios x 2 samples), none lost.
samples=$(grep -c '^\[fleet\] sample .* done:' "$WORKDIR/progress.txt" || true)
if [ "$samples" != 4 ]; then
  echo "FAIL: remote -progress printed $samples sample lines, want 4:" >&2
  cat "$WORKDIR/progress.txt" >&2
  exit 1
fi
echo "OK: remote -progress narrated all $samples samples"

# /statusz is the daemon's one status page: after a real campaign it
# must carry the counters and the finished campaign's phase breakdown
# (jq-free check: Go ships with CI, a JSON tool does not). The page is
# written into $PWD so CI can upload it as an artifact.
curl -sf "$URL/statusz" >service-statusz.json
go run ./ci/statuszcheck service-statusz.json
