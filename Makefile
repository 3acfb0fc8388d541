# Build, test, and verification entry points for power10sim.

GO ?= go

.PHONY: build test vet race race-obs chaos serve-check sample-check ledger-check fabric-check trace-check explore-check bench-test perf verify bench bench-core sweep profile

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# race-obs is the focused race gate for the observability plumbing: the
# telemetry registry/tracer, the progress bus, the HTTP server, the
# instrumented runner, and the sim-sampling glue are all exercised from many
# goroutines. isa and sampling ride along because isa.Memory mutates its
# page cache on reads: a Memory shared across goroutines would race here.
race-obs:
	$(GO) test -race ./internal/telemetry ./internal/progress ./internal/obsserver \
		./internal/runner ./internal/simobs ./internal/runlog ./internal/fabric \
		./internal/flightrec ./internal/isa ./internal/sampling

# chaos is the fault-tolerance gate: the runner hardening tests under the
# race detector, then a p10faults self-test campaign with forced panics,
# transient failures, and hangs. The campaign must degrade gracefully —
# classify what it can, tag what it lost, exit nonzero — and its metrics
# snapshot must prove the panic-recovery path actually fired.
chaos:
	$(GO) test -race -run 'TestPanic|TestRetry|TestWatchdog|TestCancellation|TestChaos|TestCampaignSurvivesChaos' \
		./internal/runner ./internal/faultinject
	$(GO) run ./cmd/p10faults -chaos -trials 40 -jobs 4 \
		-metrics /tmp/p10faults-chaos-metrics.json >/dev/null 2>/tmp/p10faults-chaos.log; \
		test $$? -eq 1 || { echo "chaos campaign did not exit 1"; cat /tmp/p10faults-chaos.log; exit 1; }
	$(GO) run ./cmd/p10obscheck -metrics /tmp/p10faults-chaos-metrics.json \
		-require-counter runner_panics_recovered_total

# serve-check boots p10bench with the live observability server on an
# ephemeral port, probes /healthz /readyz /metrics /status mid-sweep
# (validating the Prometheus exposition with p10obscheck -prom), SIGINTs the
# process, and asserts a controlled shutdown with atomic telemetry files.
serve-check:
	bash scripts/serve_check.sh

# sample-check is the quick end-to-end gate for the interval-sampling
# estimator: the sampled-vs-full validation sweep on a streaming kernel
# (daxpy) and a GEMM (dgemm-mma, substituted to the VSU variant on POWER9).
# Runs at full budgets on purpose — quick traces are a few intervals long,
# where a full run is mostly startup transient and a steady-state
# extrapolation is the wrong tool. Exits nonzero if any point breaks the
# CPI/power error bounds the estimator promises.
sample-check:
	$(GO) run ./cmd/p10bench -sample-mode=validate -sample-workloads daxpy,dgemm-mma >/dev/null

# ledger-check is the end-to-end gate for the campaign ledger: the same quick
# sweep twice with -runlog and a shared -cachedir, structural validation with
# p10obscheck, and a p10query proof that the second pass was 100%
# cache-served (every second-pass record logs a disk/memo tier).
ledger-check:
	bash scripts/ledger_check.sh

# fabric-check is the end-to-end gate for the distributed sweep fabric: a
# coordinator plus two workers on ephemeral ports, one worker killed
# mid-sweep, asserting the merged stdout is byte-identical to a
# single-process run, the lost leases were requeued, and the campaign ledger
# records every remotely executed unit exactly once.
fabric-check:
	bash scripts/fabric_check.sh

# explore-check is the end-to-end gate for the surrogate cache tier and the
# p10explore design-space explorer: seed a ledger with the quick Fig. 4
# sweep, run three active-learning enrichment rounds, then require held-out
# served CPI/power MAPE within 5% (with a served-coverage floor, so an
# over-cautious model cannot pass vacuously) and a byte-stable 5,000-point
# pure-prediction sweep.
explore-check:
	bash scripts/explore_check.sh

# trace-check is the end-to-end gate for fleet observability: a chaos run
# whose killed worker must leave a valid flight-recorder dump, whose
# coordinator must emit a structurally valid merged fleet trace (full
# clock-corrected unit lifecycles), and whose federated metrics snapshot must
# carry per-worker and fleet-aggregate series.
trace-check:
	bash scripts/trace_check.sh

# bench-test runs the nested bench module's own tests (its golden and
# agreement checks); `go test ./...` at the root does not descend into it.
bench-test:
	cd bench && $(GO) test ./...

# perf runs the perf-regression ledger: the fixed go-bench tier, written as
# the next perf/BENCH_<n>.json and compared against the newest committed
# ledger. Exits nonzero on regression.
perf:
	$(GO) run ./cmd/p10perf

# verify is the full gate: vet plus both normal and race-detector test
# passes. The race pass matters because the experiment harness fans
# simulations across a worker pool; race-obs fails fast on the telemetry
# packages before the full-tree race run.
verify: vet build test race-obs race chaos serve-check sample-check ledger-check fabric-check trace-check explore-check bench-test

bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$'

# bench-core profiles the steady-state core hot loop: BenchmarkCoreP10 with
# -benchmem (the 0 allocs/op claim is visible in the output) and a CPU
# profile under perf/, then prints the top-10 cumulative functions so the
# hot-path shape is reviewable without opening the profile interactively.
bench-core:
	$(GO) test -run='^$$' -bench='^BenchmarkCoreP10$$' -benchtime=5x -benchmem \
		-cpuprofile perf/core.cpu.pprof -o perf/core.test .
	$(GO) tool pprof -top -cum -nodecount=10 perf/core.test perf/core.cpu.pprof

sweep:
	$(GO) run ./cmd/p10bench -quick

# profile runs a quick single-figure sweep with metrics and trace capture,
# then sanity-checks both artifacts with cmd/p10obscheck (sorted metrics
# JSON, per-experiment spans, runner counters).
profile:
	$(GO) run ./cmd/p10bench -quick -exp fig5 \
		-metrics /tmp/p10bench-metrics.json -trace /tmp/p10bench-trace.json >/dev/null
	$(GO) run ./cmd/p10obscheck \
		-metrics /tmp/p10bench-metrics.json -trace /tmp/p10bench-trace.json \
		-require-counter runner_cache_misses_total -require-span 'exp:' -min-spans 1
