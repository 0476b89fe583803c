GO ?= go
BENCH ?= .
BENCHCOUNT ?= 5

.PHONY: all fmt fmt-check vet staticcheck build test loc bench-check pairs race chaos chaos-failover bench bench-target bench-tenants bench-smoke fuzz-smoke check clean

all: check

# Rewrite every file gofmt flags; CI runs fmt-check instead so an
# unformatted file fails the build rather than silently changing.
fmt:
	gofmt -w .

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Static analysis beyond vet. staticcheck is not vendored; CI installs a
# pinned version, and a developer machine without the binary skips the
# target rather than failing the whole check pipeline. Checks are
# scoped in staticcheck.conf.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs the pinned version)"; fi

build:
	$(GO) build ./...

# The figure-reproduction suite is a full simulation sweep; on a small
# machine it alone can exceed go test's default 10m package timeout, so
# give the suite generous headroom.
test:
	$(GO) test -timeout 20m ./...

# Non-test Go lines per package: the count the ROADMAP's line gates are
# stated in (CHANGES.md records it before and after every deletion PR).
LOCDIRS ?= internal/live internal/nvmetcp internal/coord internal/peercache cmd
loc:
	@for d in $(LOCDIRS); do \
		printf '%-20s %s\n' $$d $$(find $$d -name '*.go' ! -name '*_test.go' | xargs cat | wc -l); done

# bench/ is a module of its own (it must build from a bare checkout), so
# `go test ./...` at the root never compiles it. This is what notices a
# refactor that breaks the benchmark.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Paired runs of one benchmark workload, REF's committed files against
# this tree, judged by the rule a claimed gain must meet:
#   make pairs W=imagenet-assembly REF=HEAD~1 N=10 SECONDS=10
W ?= imagenet-assembly
REF ?= HEAD~1
N ?= 10
SECONDS ?= 10
pairs:
	bash scripts/pairs.sh $(W) $(REF) $(N) $(SECONDS)

# Every package but the figure sweeps (pure simulation, one goroutine,
# ~10x slower under the detector than the rest together). The timeout
# is for internal/blockdev, whose pinned-view race tests alone run nine
# minutes under the detector on a 2-core box.
race:
	$(GO) test -race -timeout 20m $$($(GO) list ./... | grep -v internal/figures)

# Chaos soak: run the seeded fault-injection epochs twice to shake out
# scheduling-dependent bugs in the resilience path.
chaos:
	$(GO) test -run TestChaos -count=2 ./internal/live

# Control-plane failover soak: the Raft election/replication suite, the
# whole coordinator suite (one replica and three), and the live-path
# failover cases (leader killed mid-epoch, rank death mid-barrier,
# elastic depart with mid-epoch reshard), repeated under the race
# detector. Deadlines inside the tests are generous multiples of the
# election timeout, so a slow CI runner re-elects late rather than
# flaking.
chaos-failover:
	$(GO) test -race -count=2 -timeout 15m ./internal/consensus
	$(GO) test -race -count=2 -timeout 15m ./internal/coord
	$(GO) test -race -count=2 -timeout 15m \
		-run 'TestChaosFailoverLeaderKilledMidEpoch|TestElasticDepartReshardMidEpoch|TestChaosClusterPeerDiesMidMountBarrier|TestAsymmetricPartition' \
		./internal/live ./internal/chaos

# Pipeline benchmarks, benchstat-friendly: run with BENCHCOUNT repeats
# and pipe the output of two builds into `benchstat old.txt new.txt`.
#   make bench BENCH=BenchmarkLiveEpoch > new.txt
bench:
	$(GO) test -run '^$$' -bench '$(BENCH)' -benchmem -count=$(BENCHCOUNT) \
		./internal/live ./internal/nvmetcp ./internal/bufpool

# Server engine matrix: the RPQ/SCQ worker pool across worker counts and
# client queue depths; and the raw loopback floor beneath it (cold vs
# hot, split vs same goroutine), which is what the engine's numbers are
# to be read against.
bench-target:
	$(GO) test -run '^$$' -bench 'BenchmarkTargetServe|BenchmarkLoopbackSplit' -benchmem -count=$(BENCHCOUNT) \
		./internal/nvmetcp

# Multi-tenant isolation gate: a paced victim tenant's queue-wait p99
# solo vs under a greedy quota-capped co-tenant. The bench itself exits
# non-zero when the bound is violated, so this target IS the CI gate;
# the committed-report invariants are then re-asserted by
# cmd/dlfsbench/tenants_test.go.
bench-tenants:
	$(GO) run ./cmd/dlfsbench -tenants -json BENCH_TENANTS.json
	$(GO) test -run TestCommittedTenantBenchReport -count=1 ./cmd/dlfsbench

# CI smoke: prove the benchmarks still compile and run one iteration,
# without paying for a real measurement.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkLiveEpoch|BenchmarkEmitSmall' -benchtime=1x -count=1 ./internal/live
	$(GO) test -run '^$$' -bench 'BenchmarkGetPut' -benchtime=1x -count=1 ./internal/bufpool
	$(GO) test -run '^$$' -bench 'BenchmarkTargetServe' -benchtime=1x -count=1 ./internal/nvmetcp

# CI smoke: give each fuzz target 10s on the saved corpus plus fresh
# inputs; long exploratory runs stay manual.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzReadCapsule -fuzztime 10s ./internal/nvmetcp
	$(GO) test -run '^$$' -fuzz FuzzSampleListFrame -fuzztime 10s ./internal/nvmetcp
	$(GO) test -run '^$$' -fuzz FuzzTenantFrame -fuzztime 10s ./internal/nvmetcp
	$(GO) test -run '^$$' -fuzz FuzzWriteFrame -fuzztime 10s ./internal/nvmetcp
	$(GO) test -run '^$$' -fuzz FuzzScan -fuzztime 10s ./internal/dataset
	$(GO) test -run '^$$' -fuzz FuzzCoordFrame -fuzztime 10s ./internal/coord
	$(GO) test -run '^$$' -fuzz FuzzPeerFrame -fuzztime 10s ./internal/peercache

check: fmt-check vet staticcheck build test bench-check race chaos

clean:
	$(GO) clean ./...
