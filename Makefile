# Development targets. `make check` is the required gate before sending
# changes: formatting, vet, a full build, the race detector over every
# package (the sync pipeline overlaps encode workers with the receive loop,
# so gluon and comm must always pass under -race), the trace-overhead guard,
# and a traced smoke run analyzed by gluon-trace.

GO ?= go

.PHONY: check fmt vet build golden-gate perfbench-check test race race-fault restore-gate bench sync-bench perf perf-trend trace-guard trace-smoke watchdog-smoke doctor-smoke top-smoke

# trace-guard runs before the race gates: it measures wall time, and the
# race suites leave the machine hot enough to skew it.
check: fmt vet build perfbench-check golden-gate trace-guard perf-trend trace-smoke watchdog-smoke doctor-smoke top-smoke race-fault restore-gate race

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The end-to-end benchmark is a nested module, so the root build, vet and
# test skip it; it imports internal/bench and internal/perfdb, so vet and
# test it on every check.
perfbench-check:
	$(GO) -C perfbench vet ./...
	$(GO) -C perfbench test ./...

# Golden gate: the byte-pinned volume, trace and example goldens, uncached.
# The Go test cache does not key on GOMAXPROCS, so a cached pass could
# replay a result measured at another setting. GOMAXPROCS=2 joins this gate
# once graph generation no longer depends on GOMAXPROCS (ROADMAP item 1).
golden-gate:
	GOMAXPROCS=1 $(GO) test -count=1 -run 'TestGoldenCommVolumes|TestTraceMatchesGoldenVolumes|TestSidebandMergedMatchesGoldenVolumes|TestHeterogeneousEngines|ExampleRun' ./ ./internal/dsys/

race:
	$(GO) test -race ./...

# Fault-tolerance gate: the transport and BSP-runner fault suites (peer
# death, injected faults, shutdown mid-collective) must pass under the race
# detector, uncached, on every check (DESIGN.md §4.2).
race-fault:
	$(GO) test -race -count=1 ./internal/comm/... ./internal/dsys/...

# Survivability gate: the crash matrix (a rank killed at every round
# boundary and mid-sync of a 3-host pr run, restored from checkpoint, with
# results pinned byte-identical to the fault-free golden), the live TCP
# kill/replace rejoin, and the buffer-pool leak audit under injected faults
# — all under the race detector, uncached (DESIGN.md §4.6).
restore-gate:
	$(GO) test -race -count=1 -run 'TestCrashMatrix|TestRejoinTCP|TestRestoreRequiresCheckpointable|TestPoolBalanceUnderFaults' ./internal/dsys/
	$(GO) test -race -count=1 ./internal/ckpt/

# Sync hot-path microbenchmark (BenchmarkSyncHotPath) straight from go test.
bench:
	$(GO) test -run=NONE -bench=SyncHotPath -benchmem ./internal/gluon/

# Record the sync-guard baseline: run the sync microbenchmark at the
# guard's parameters and append it to the perfdb history as a sync-bench
# record. trace-guard compares against the newest such record with the
# same graph and worker count. One sync worker keeps allocs/op independent
# of the host's CPU count.
sync-bench:
	$(GO) run ./cmd/gluon-bench -sync-record -perfdb BENCH_history.jsonl -scale 12 -edgefactor 8 -seed 7 -workers 1

# Hot-path guard: the sync hot path with tracing disabled must stay within
# tolerance of the newest sync-bench baseline in BENCH_history.jsonl
# (DESIGN.md §4.3), gated across all three compression tiers — off
# (auto), static threshold (comp-static), and the adaptive CompressTuner
# policy (comp-adaptive) — plus the unopt wire format (DESIGN.md §4.5).
# The gate is the self-calibrating opt/unopt RATIO (DESIGN.md §4.9):
# machine speed cancels, so an unmodified checkout passes on any machine
# without a new baseline; allocs/op must never regress. Each run appends
# its measurement to the history as a sync-guard record for gluon-perf.
trace-guard:
	$(GO) run ./cmd/gluon-bench -sync-guard -guard-tol 0.10 -perfdb BENCH_history.jsonl -scale 12 -edgefactor 8 -seed 7 -workers 1

# Trend smoke gate: build a short throwaway history at a small scale and run
# the gluon-perf regression check over it — proves the record → history →
# trend-analysis path end to end on every check. The lenient tolerance keeps
# this a plumbing gate, not a perf gate (trace-guard is the perf gate).
perf-trend:
	@rm -f /tmp/gluon-perf-trend.jsonl
	$(GO) run ./cmd/gluon-bench -sync-record -perfdb /tmp/gluon-perf-trend.jsonl -scale 10 -edgefactor 8 -seed 7 -workers 1 -sync-tiers auto,unopt -sync-hosts 2
	$(GO) run ./cmd/gluon-bench -sync-record -perfdb /tmp/gluon-perf-trend.jsonl -scale 10 -edgefactor 8 -seed 7 -workers 1 -sync-tiers auto,unopt -sync-hosts 2
	$(GO) run ./cmd/gluon-perf -db /tmp/gluon-perf-trend.jsonl -check -tol 0.5

# Trend tables over the committed history, grouped by machine fingerprint.
perf:
	$(GO) run ./cmd/gluon-perf -db BENCH_history.jsonl

# Watchdog smoke: a host deliberately stalled with FaultTransport delay
# injection must be named — host ID and phase — by the watchdog and
# escalated into a typed cluster failure before the BSP deadline fires
# (DESIGN.md §4.4).
watchdog-smoke:
	$(GO) test -count=1 -run 'TestWatchdog' ./internal/dsys/ ./internal/trace/

# Doctor smoke: a fault-injected 3-host run with the flight recorder armed
# must leave postmortem bundles that diagnose into the killed rank, the
# trigger, and the round — under the race detector (DESIGN.md §4.7).
doctor-smoke:
	$(GO) test -race -count=1 -run 'TestDoctorSmoke' ./internal/dsys/

# Top smoke: a traced in-process cluster shipped over the sideband with a
# programmatic live subscription attached (the gluon-top path) must observe
# nonzero round progress and emit a critical-path verdict, under the race
# detector (DESIGN.md §4.8).
top-smoke:
	$(GO) test -race -count=1 -run 'TestTopSmoke' ./internal/dsys/

# Trace smoke: record a 4-host BFS run, then run the analyzer over the
# export — proves the end-to-end trace path (emit, export, parse, tables).
trace-smoke:
	$(GO) run ./cmd/gluon-run -bench bfs -hosts 4 -scale 10 -edgefactor 8 -trace /tmp/gluon-trace-smoke.json
	$(GO) run ./cmd/gluon-trace /tmp/gluon-trace-smoke.json
