#!/usr/bin/env bash
# explore-check: end-to-end gate for the surrogate and the p10explore
# design-space explorer. Seeds a campaign ledger with the quick Fig. 4
# ablation sweep, trains a surrogate, runs three active-learning enrichment
# rounds (each simulating only the most uncertain design points), then
# enforces the two properties the explorer relies on:
#
#   1. Honesty: on a deterministic held-out split, the predictions that clear
#      the confidence gate ("served" — the ones p10explore ranks without
#      simulating) have CPI and power MAPE within 5%, with a floor on how
#      many rows must be served so an over-cautious model cannot pass
#      vacuously. No figure and no runner result comes from a prediction.
#   2. Determinism: a 5,000-point pure-prediction sweep is byte-identical
#      across two runs of the same binary.
#
# Run from the repository root (the `make explore-check` target does).
set -euo pipefail

GO=${GO:-go}
TMP=$(mktemp -d)
cleanup() {
    rm -rf "$TMP"
}
trap cleanup EXIT

fail() {
    echo "explore-check: $*" >&2
    exit 1
}

$GO build -o "$TMP/p10bench" ./cmd/p10bench
$GO build -o "$TMP/p10explore" ./cmd/p10explore

RL="$TMP/runlog"
CACHE="$TMP/cache"
MODEL="$TMP/model.json"

# Seed corpus: the quick Fig. 4 ablation-ladder sweep (8 configs x 2 SMT
# levels per SPECint-like workload). The enrichment rounds below append
# directly to the same ledger.
"$TMP/p10bench" -quick -exp fig4 -runlog "$RL" -cachedir "$CACHE" \
    >/dev/null 2>"$TMP/stderr" || { cat "$TMP/stderr" >&2; fail "seed sweep failed"; }

"$TMP/p10explore" -op train -runlog "$RL" -model "$MODEL" >/dev/null \
    || fail "initial training failed"

# Active learning: three enrichment rounds per workload, each simulating the
# 24 most uncertain of 400 generated design points and appending the ground
# truth to the ledger; retrain (with conformal calibration) after each round.
WORKLOADS="boardeval compile compress dsim graphopt intcompute interp mediavec pathfind xmltrans"
for seed in 11 12 13; do
    for wl in $WORKLOADS; do
        "$TMP/p10explore" -op explore -model "$MODEL" -runlog "$RL" \
            -points 400 -sims 24 -workload "$wl" -seed "$seed" -k 1 >/dev/null \
            || fail "enrichment sweep ($wl, seed $seed) failed"
    done
    "$TMP/p10explore" -op train -runlog "$RL" -model "$MODEL" >/dev/null \
        || fail "retraining failed"
done

# Accuracy gate: served held-out CPI and power MAPE within 5% at the 8%
# confidence threshold, serving at least 10% of the held-out rows. Exit 3
# from p10explore means a gate failed.
"$TMP/p10explore" -op validate -runlog "$RL" -holdout 0.25 -seed 1 \
    -threshold 0.08 -gate 5 -min-served 0.1 \
    || fail "held-out accuracy gate failed"

# Determinism gate: the same 5,000-point pure-prediction sweep twice, with
# zero real simulations, must be byte-identical.
"$TMP/p10explore" -op explore -model "$MODEL" -points 5000 -sims 0 \
    -workload compile -seed 7 -k 25 >"$TMP/sweep1.txt" \
    || fail "5000-point sweep failed"
"$TMP/p10explore" -op explore -model "$MODEL" -points 5000 -sims 0 \
    -workload compile -seed 7 -k 25 >"$TMP/sweep2.txt" \
    || fail "5000-point sweep rerun failed"
cmp -s "$TMP/sweep1.txt" "$TMP/sweep2.txt" || {
    diff "$TMP/sweep1.txt" "$TMP/sweep2.txt" | head >&2
    fail "p10explore output is not byte-stable across runs"
}

echo "explore-check: ok (served accuracy within gate, 5000-point sweep byte-stable)"
