# Ensemble reproduction — common development targets.

GO ?= go
# BENCH_OUT is where bench-gate records the parsed benchmark trajectory;
# override it to keep a run without clobbering the checked-in record.
BENCH_OUT ?= BENCH_PR10.json

.PHONY: all build test race verify examples bench bench-throughput bench-gate multiproc flight fuzz pooldebug clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race also vets: the engine and stacks are single-threaded by design,
# so the race detector plus vet is the cheap way to catch glue that
# violates that assumption.
race:
	$(GO) vet ./...
	$(GO) test -race ./...

# The pre-merge gate: vet, the full suite, and the internal packages
# under the race detector — the cluster tests in internal/core and
# internal/netsim run full stacks one-goroutine-per-member, so this is
# what proves the pooled hot path is safe under real concurrency. The
# repository benchmark under perfbench/ is a Go module of its own
# (replace ensemble => ../), so the root `go build ./...` never compiles
# it; it is vetted and tested here so a core/netsim API change cannot
# break it unseen.
verify:
	$(GO) vet ./...
	$(GO) test ./...
	$(GO) test -race ./internal/...
	cd perfbench && $(GO) vet ./... && $(GO) test ./...
	$(MAKE) examples
	$(MAKE) bench-gate
	$(MAKE) multiproc

# The self-checking examples: each panics (non-zero exit) on a broken
# invariant. udpchat is left out — it needs peers.
EXAMPLES = bypass failover partition quickstart totalorder verify
examples:
	@for e in $(EXAMPLES); do \
		echo "== examples/$$e"; \
		$(GO) run ./examples/$$e > /dev/null || exit 1; \
	done

# The paper-table benchmarks (Tables 1, 2 and Figure 6).
bench:
	$(GO) test -run xxx -bench . -benchtime 2000x .

# The sustained-throughput gate: the 10-layer cast path must report
# 0 allocs/op for IMP, FUNC and MACH (see EXPERIMENTS.md).
bench-throughput:
	$(GO) test -run xxx -bench BenchmarkThroughput -benchtime 5000x .

# The batching + observability + dispatch regression gate: the 10-layer
# two-node throughput benchmarks (batched, delta and observed included)
# must stay at 0 allocs/op, the 8-member batched network runs must
# coalesce >= 2 sub-packets per frame, cross-frame delta compression
# (the member default) must cut the 8-member MACH workload's bytes/msg
# by >= 50% against the classic frame format (with the BatchedDelta
# point — 0xB9, chaining off — present as the ablation), turning the metrics registry + flight
# recorder on must keep >= 97% of the unobserved 8-member throughput,
# the multi-CCP dispatch family must cut the mixed workload's
# interpreted share to <= 0.5x the single-CCP baseline, the
# XFrameIdentity probe must stay byte-identical between Run and
# RunConcurrent, and the observability plane must measure latency for
# free: histogram-instrumented (_ObsHist) benchmarks at 0 allocs/op,
# the obs-ratio bar with live histograms, and complete causal-span
# reconstruction of the 8-member netsim run (SpanRecon, Gate 8). The
# parsed numbers are recorded in $(BENCH_OUT).
# The unit side runs 100x, not 1x: at one measured round, a GC landing
# mid-measurement (emptied sync.Pool victim cache, one refill) counts a
# stray alloc against the whole op. 100 rounds amortize the blip to 0
# while any real per-round allocation still reports >= 1 allocs/op.
# The mixed side runs 1x: the measurement floors itself at 600 rounds.
# The net pass carries the member-count scaling sweep (_Scale_ points at
# 16/64/256; fixed internal round counts, Gate 6) and a hard -timeout so
# a scheduling regression at 256 members fails the gate instead of
# hanging verify; on machines under 4 cores the 256-member point skips
# itself (the gate accepts the skip marker; the net pass runs -v because
# plain -bench output omits SKIP lines entirely) — run with
# ENSEMBLE_SCALE_FORCE=1 to measure it anyway.
bench-gate:
	$(GO) test -run xxx -bench 'BenchmarkThroughput_' -benchtime 100x . > .bench_gate_unit.out
	$(GO) test -v -run xxx -bench 'BenchmarkThroughputNet_' -benchtime 150x -timeout 15m . > .bench_gate_net.out
	$(GO) test -run xxx -bench 'BenchmarkMixedTraffic_' -benchtime 1x . > .bench_gate_mixed.out
	$(GO) run ./cmd/bench-gate -unit .bench_gate_unit.out -net .bench_gate_net.out -mixed .bench_gate_mixed.out -out $(BENCH_OUT)
	rm -f .bench_gate_unit.out .bench_gate_net.out .bench_gate_mixed.out

# The multi-process equivalence gate: 4 ensemble-node processes on
# loopback run the seeded 10-layer MACH workload over real UDP and must
# deliver the exact per-member sequence of the in-process netsim run of
# the same seed (see DESIGN.md "Deployment"). The second run is the
# adversarial form: 8 processes with 5% seeded receive-side frame loss
# on every node and a forced mid-run generation bump, still required to
# match the loss-free reference byte for byte. Bounded wall time; skips
# itself (exit 0) when loopback UDP is unavailable; flight dumps from
# failed runs stay in .multiproc-artifacts/ for flight-diff.
multiproc:
	$(GO) build -o .ensemble-node.bin ./cmd/ensemble-node
	./.ensemble-node.bin -launch 4 -rounds 16 -size 128 -seed 42 -timeout 60s -artifacts .multiproc-artifacts
	./.ensemble-node.bin -launch 8 -rounds 8 -size 64 -seed 43 -loss 0.05 -lossseed 7 -bump 20 -timeout 90s -artifacts .multiproc-artifacts
	rm -f .ensemble-node.bin

# A short fuzzing smoke pass over the stateful wire-format decoders:
# the cross-frame walker under adversarial frames (seeded and cold
# mirrors) and the encode/decode round trip. The checked-in seed
# corpora under internal/transport/testdata/fuzz/ run as regular tests
# in every `make test`; this target additionally mutates for a few
# seconds per target.
fuzz:
	$(GO) test -run xxx -fuzz FuzzXFrameWalkLink -fuzztime 10s ./internal/transport/
	$(GO) test -run xxx -fuzz FuzzXFrameRoundTrip -fuzztime 10s ./internal/transport/

# A flight recording of the standard 8-member MACH delta-batched
# workload (0xB9, chaining off), exported as Chrome trace_event JSON — open flight.trace.json
# in Perfetto (ui.perfetto.dev) or chrome://tracing; one track per
# member.
flight:
	$(GO) run ./cmd/ensemble-bench -flight flight.trace.json

# The full test suite with pool debugging forced on everywhere.
pooldebug:
	ENSEMBLE_POOLDEBUG=1 $(GO) test ./...

clean:
	$(GO) clean
	rm -f ensemble.test *.prof *.pprof flight.trace.json .bench_gate_*.out .ensemble-node.bin
	rm -rf .multiproc-artifacts
