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

"$WORKDIR/mcversid" -listen "$ADDR" -workers 0 -shard-size 2 &

for i in $(seq 1 100); do
  if curl -sf "$URL/v1/healthz" >/dev/null 2>&1; then break; fi
  [ "$i" = 100 ] && { echo "mcversid never became healthy" >&2; exit 1; }
  sleep 0.1
done

"$WORKDIR/mcversi-worker" -server "$URL" -name ci-smoke -poll 100ms &

"$WORKDIR/mcversi" "${CAMPAIGN[@]}" -remote "$URL" -progress -merged-out "$WORKDIR/remote.json"
"$WORKDIR/mcversi" "${CAMPAIGN[@]}" -merged-out "$WORKDIR/local.json"

if ! cmp "$WORKDIR/local.json" "$WORKDIR/remote.json"; then
  echo "FAIL: distributed merged result differs from local bytes" >&2
  exit 1
fi
echo "OK: distributed and local merged results are byte-identical ($(wc -c <"$WORKDIR/local.json") bytes)"

# Observability smoke: after a real campaign, the daemon's /metrics and
# /statusz must be served, parseable, and live. The scrapes are written
# into $PWD so CI can upload them as artifacts.
curl -sf "$URL/metrics" >service-metrics.txt
curl -sf "$URL/statusz" >service-statusz.json

for family in \
  mcversid_campaigns_submitted_total \
  mcversid_campaigns_finished_total \
  mcversid_leases_issued_total \
  mcversid_queue_depth \
  mcversid_campaign_seconds_count \
  mcversid_check_fastpath_total \
  mcversid_phase_nanoseconds_total; do
  if ! grep -q "^$family" service-metrics.txt; then
    echo "FAIL: /metrics missing family $family" >&2
    exit 1
  fi
done

# Every non-comment line must be `name[{labels}] value` with a finite
# value — the contract a Prometheus scraper needs.
awk '
  /^#/ { next }
  NF == 0 { next }
  NF != 2 { print "FAIL: malformed sample line: " $0; bad = 1; next }
  $2 ~ /NaN|Inf/ { print "FAIL: non-finite sample: " $0; bad = 1; next }
  $2 !~ /^-?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?$/ { print "FAIL: unparseable value: " $0; bad = 1 }
  END { exit bad }
' service-metrics.txt

# The remote worker ran instrumented shards, so simulation time must
# have been attributed.
sim_ns=$(awk -F' ' '/^mcversid_phase_nanoseconds_total\{phase="sim"\}/ { print $2 }' service-metrics.txt)
if [ -z "$sim_ns" ] || ! awk -v v="$sim_ns" 'BEGIN { exit !(v > 0) }'; then
  echo "FAIL: sim phase nanoseconds not positive: '$sim_ns'" >&2
  exit 1
fi

# The smoke campaign runs only fast-path-supported models (TSO/PSO),
# and a campaign keeps no verdict memo, so every iteration the worker
# ran was checked and decided by the fast-path checker — zero
# conclusive checks or any fallback means its scope silently regressed.
fast=$(awk -F' ' '/^mcversid_check_fastpath_total/ { print $2 }' service-metrics.txt)
fallback=$(awk -F' ' '/^mcversid_check_fallback_total/ { print $2 }' service-metrics.txt)
if [ -z "$fast" ] || ! awk -v v="$fast" 'BEGIN { exit !(v > 0) }'; then
  echo "FAIL: check fast-path total not positive: '$fast'" >&2
  exit 1
fi
if [ -n "$fallback" ] && ! awk -v v="$fallback" 'BEGIN { exit !(v == 0) }'; then
  echo "FAIL: fast path fell back $fallback times on TSO/PSO" >&2
  exit 1
fi

# /statusz must be JSON carrying the finished campaign with its phase
# breakdown (jq-free check: Go ships with CI, a scraper does not).
go run ./ci/statuszcheck service-statusz.json

echo "OK: /metrics parseable ($(grep -vc '^#' service-metrics.txt) samples, sim=${sim_ns}ns) and /statusz carries the phase breakdown"
