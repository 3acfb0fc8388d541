#!/usr/bin/env bash
# trace-check: end-to-end gate for the fleet observability tentpole — the
# merged distributed trace, metrics federation, and the flight recorder.
# Boots a coordinator with a chaos worker (self-kill after 5 units) and a
# steady worker, and asserts:
#
#   1. Flight record from a corpse — the chaos worker's self-kill path dumps
#      a valid p10flightrec-v1 record on the way out (p10obscheck -flightrec),
#      so a dead worker is post-mortemable.
#   2. Merged fleet trace — the coordinator's -trace file is a structurally
#      valid Chrome trace: every merged unit shows its full queued → leased →
#      running → shipped lifecycle (running inside a lease after clock
#      correction) plus exactly one merge instant (p10obscheck -fleet-trace).
#   3. Metrics federation — the coordinator's -metrics snapshot carries the
#      steady worker's pushed series under worker="steady" and cross-worker
#      aggregates under worker="fleet", and still validates structurally.
#   4. The chaos was real — the kill forced at least one requeue, and the
#      coordinator's own flight record is valid too.
#
# Run from the repository root (the `make trace-check` target does).
set -euo pipefail

GO=${GO:-go}
TMP=$(mktemp -d)
COORD_PID=""
cleanup() {
    [ -n "$COORD_PID" ] && kill "$COORD_PID" 2>/dev/null
    rm -rf "$TMP"
}
trap cleanup EXIT

fail() {
    echo "trace-check: $*" >&2
    [ -f "$TMP/coord.err" ] && tail -5 "$TMP/coord.err" >&2
    exit 1
}

$GO build -o "$TMP/p10coord" ./cmd/p10coord
$GO build -o "$TMP/p10worker" ./cmd/p10worker
$GO build -o "$TMP/p10obscheck" ./cmd/p10obscheck

EXP=headline

"$TMP/p10coord" -listen 127.0.0.1:0 -quick -exp "$EXP" -min-workers 2 \
    -lease-ttl 2s -trace "$TMP/fleet.trace.json" \
    -metrics "$TMP/fleet.metrics.json" -flightrec "$TMP/coord.flight.json" \
    >"$TMP/coord.out" 2>"$TMP/coord.err" &
COORD_PID=$!

COORD_URL=""
for _ in $(seq 1 100); do
    COORD_URL=$(sed -n 's/^p10coord: fabric + observability on //p' "$TMP/coord.err" | head -1)
    [ -n "$COORD_URL" ] && break
    kill -0 "$COORD_PID" 2>/dev/null || fail "coordinator died before listening"
    sleep 0.1
done
[ -n "$COORD_URL" ] || fail "coordinator never announced its address"

"$TMP/p10worker" -coord "$COORD_URL" -jobs 2 -name chaos \
    -chaos kill:5 -flightrec "$TMP/w1.flight.json" >"$TMP/w1.err" 2>&1 &
W1=$!
"$TMP/p10worker" -coord "$COORD_URL" -jobs 2 -name steady \
    >"$TMP/w2.err" 2>&1 &
W2=$!

RC1=0; wait "$W1" || RC1=$?
[ "$RC1" -eq 3 ] || fail "chaos worker exited $RC1, want 3 (self-kill)"

RC=0; wait "$COORD_PID" || RC=$?
COORD_PID=""
[ "$RC" -eq 0 ] || fail "coordinator exited $RC despite a surviving worker"
RC2=0; wait "$W2" || RC2=$?
[ "$RC2" -eq 0 ] || { tail -5 "$TMP/w2.err" >&2; fail "steady worker exited $RC2"; }

# A handler panic is caught by net/http and logged, so the coordinator can
# still exit 0 after one; any such line fails the check.
if grep -q 'http: panic' "$TMP/coord.err"; then
    grep -m1 'http: panic' "$TMP/coord.err" >&2
    fail "a coordinator HTTP handler panicked"
fi

# 1. The killed worker dumped its flight record on the way down, and the
# dump names the chaos kill as its reason.
[ -f "$TMP/w1.flight.json" ] || fail "chaos worker left no flight record"
"$TMP/p10obscheck" -flightrec "$TMP/w1.flight.json" \
    || fail "p10obscheck rejected the chaos worker's flight record"
grep -q '"reason": "chaos kill"' "$TMP/w1.flight.json" \
    || fail "worker flight record does not name the chaos kill"

# 2. The merged fleet trace is structurally valid with full lifecycles.
"$TMP/p10obscheck" -fleet-trace "$TMP/fleet.trace.json" -min-units 1 \
    || fail "p10obscheck rejected the merged fleet trace"

# 3. Federation: the snapshot still validates, and carries per-worker plus
# fleet-aggregate series pushed from the steady worker.
"$TMP/p10obscheck" -metrics "$TMP/fleet.metrics.json" \
    -require-counter fabric_units_completed_total \
    || fail "p10obscheck rejected the federated metrics snapshot"
grep -q '"worker": "steady"' "$TMP/fleet.metrics.json" \
    || fail "federated metrics missing the steady worker's series"
grep -q '"worker": "fleet"' "$TMP/fleet.metrics.json" \
    || fail "federated metrics missing the fleet aggregates"

# 4. The kill actually exercised recovery, and the coordinator's own flight
# record validates.
FABLINE=$(grep '^fabric: ' "$TMP/coord.err" | head -1)
REQUEUES=$(echo "$FABLINE" | sed -n 's/.* \([0-9][0-9]*\) requeues.*/\1/p')
[ -n "$REQUEUES" ] || fail "coordinator printed no fabric summary"
[ "$REQUEUES" -ge 1 ] || fail "no units were requeued — the kill was not exercised ($FABLINE)"
"$TMP/p10obscheck" -flightrec "$TMP/coord.flight.json" \
    || fail "p10obscheck rejected the coordinator's flight record"

echo "trace-check: ok (fleet trace + federated metrics + $REQUEUES requeue(s), flight records from coordinator and killed worker)"
