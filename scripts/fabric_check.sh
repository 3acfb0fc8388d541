#!/usr/bin/env bash
# fabric-check: end-to-end gate for the fault-tolerant distributed sweep
# fabric. Boots a coordinator on an ephemeral port with two workers, one of
# which kills itself (exit without reporting) partway through the sweep, and
# asserts the three contracts that make the fabric trustworthy:
#
#   1. Determinism under failure — the coordinator's merged stdout is
#      byte-identical to a plain single-process `p10bench` run of the same
#      sweep, even though units were leased, lost, reclaimed, and
#      re-dispatched across a shrinking fleet.
#   2. Recovery actually happened — the killed worker's leases were requeued
#      (the run is a real chaos run, not a lucky clean one), and the
#      coordinator still exits 0.
#   3. Exactly-once merge — the campaign ledger validates structurally and
#      records every remotely executed unit exactly once: no key carries two
#      fabric-tier records, no unit is missing.
#
# Run from the repository root (the `make fabric-check` target does).
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
    echo "fabric-check: $*" >&2
    [ -f "$TMP/coord.err" ] && tail -5 "$TMP/coord.err" >&2
    exit 1
}

$GO build -o "$TMP/p10bench" ./cmd/p10bench
$GO build -o "$TMP/p10coord" ./cmd/p10coord
$GO build -o "$TMP/p10worker" ./cmd/p10worker
$GO build -o "$TMP/p10query" ./cmd/p10query
$GO build -o "$TMP/p10obscheck" ./cmd/p10obscheck

EXP=headline
RL="$TMP/runlog"

# Reference: the same sweep, single process, no fabric.
"$TMP/p10bench" -quick -exp "$EXP" >"$TMP/bench.out" 2>/dev/null \
    || fail "baseline p10bench sweep failed"

# Coordinator on an ephemeral port; a short lease TTL keeps the
# reclaim-after-kill latency (and so this check) fast.
"$TMP/p10coord" -listen 127.0.0.1:0 -quick -exp "$EXP" -min-workers 2 \
    -lease-ttl 2s -runlog "$RL" \
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

# Two workers: one healthy, one that exits without reporting after 5 units —
# its in-flight leases are abandoned mid-sweep and must be re-dispatched.
"$TMP/p10worker" -coord "$COORD_URL" -jobs 2 -name chaos \
    -chaos kill:5 >"$TMP/w1.err" 2>&1 &
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

# 1. Determinism: merged fleet stdout is byte-identical to the local run.
cmp -s "$TMP/bench.out" "$TMP/coord.out" || {
    diff "$TMP/bench.out" "$TMP/coord.out" | head -20 >&2
    fail "fleet stdout differs from single-process stdout"
}

# 2. Recovery: the kill must have forced at least one requeue.
FABLINE=$(grep '^fabric: ' "$TMP/coord.err" | head -1)
REQUEUES=$(echo "$FABLINE" | sed -n 's/.* \([0-9][0-9]*\) requeues.*/\1/p')
[ -n "$REQUEUES" ] || fail "coordinator printed no fabric summary"
[ "$REQUEUES" -ge 1 ] || fail "no units were requeued — the kill was not exercised ($FABLINE)"
echo "$FABLINE" | grep -q ' 0 failed,' || fail "units failed permanently ($FABLINE)"

# 3. Exactly-once merge: the ledger validates structurally (fabric tier
# included) and no content key was recorded as remotely executed twice.
N=$("$TMP/p10query" -runlog "$RL" -op count)
[ "$N" -ge 1 ] || fail "ledger is empty"
"$TMP/p10obscheck" -runlog "$RL" -min-records "$N" || fail "p10obscheck rejected the ledger"
FAB=$(grep -c '"tier":"fabric"' "$RL/ledger.jsonl") || fail "no fabric-tier records in the ledger"
DUPS=$(grep '"tier":"fabric"' "$RL/ledger.jsonl" \
    | grep -o '"key":"[0-9a-f]*"' | sort | uniq -d | wc -l)
[ "$DUPS" -eq 0 ] || fail "$DUPS unit(s) recorded more than once at fabric tier"

echo "fabric-check: ok ($FAB units exactly-once across 2 workers, $REQUEUES requeued after kill, stdout byte-identical)"
