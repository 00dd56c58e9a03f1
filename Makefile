GO ?= go

.PHONY: all build vet gofmt-check lint replay-deps test race bench profile fuzz cover serve-smoke ci

all: build vet lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# gofmt-check fails if any Go file needs gofmt. testdata/ is excluded:
# analyzer fixtures (counterwidth's field alignment) are test input.
gofmt-check:
	@files=$$(find . \( -name .git -o -name testdata -o -name .bench_build \) -prune -o -name '*.go' -print | xargs gofmt -l); \
	if [ -n "$$files" ]; then echo "ERROR: not gofmt-clean:"; echo "$$files"; exit 1; fi

# lint runs the gofmt check, go vet and the repo's own invariant suite
# (see internal/analysis and cmd/dpbplint).
lint: gofmt-check
	$(GO) run ./cmd/dpbplint ./...

test:
	$(GO) test ./...

# replay-deps fails if any package of this module other than
# internal/replay itself — tests included — depends on internal/replay.
# The replay layer stays in the tree only for the benchmark's probes
# (dpbpbench is a separate module, outside ./...).
REPLAY_PKG = dpbp/internal/replay
replay-deps:
	@roots=$$($(GO) list ./... | grep -vx '$(REPLAY_PKG)') || exit 1; \
	if $(GO) list -deps -test $$roots | grep -qx '$(REPLAY_PKG)'; then \
		echo "ERROR: packages depending on $(REPLAY_PKG):"; \
		$(GO) list -test -f '{{.ImportPath}}: {{join .Deps " "}}' $$roots | \
			grep -E ' $(REPLAY_PKG)( |$$)' | cut -d: -f1; \
		exit 1; \
	fi; \
	echo "replay-deps ok: no package outside dpbpbench depends on $(REPLAY_PKG)"

# race covers the packages where concurrency lives (the scheduler, the
# experiment fan-out, the timing core — SMT suites included — the trace
# collector, the run cache's single flight, waiters and eviction, the
# dpbpd sweep server, and the programs' shared lazy decode and
# fingerprint) plus the root-package determinism regression tests, which
# drive the fan-out end to end, and the oracle's SMT differential wall.
race:
	$(GO) test -race ./internal/sched/... ./internal/exp/... ./internal/cpu/... ./internal/obs/... ./internal/runcache/... ./internal/serve/... ./internal/program/...
	$(GO) test -race -run Determinism .
	$(GO) test -race -run SMT ./internal/oracle ./cmd/dpbp

# bench runs every go-test benchmark once, for local profiling. It is a
# developer tool, not a ledger: performance is measured and compared by
# dpbpbench (see dpbpbench/README.md and BENCHMARK.json).
bench:
	$(GO) test -bench . -benchmem -run '^$$' ./...

# fuzz runs a short smoke of each native fuzz target against the
# differential oracle (the engine accepts one target per invocation).
FUZZTIME ?= 30s
fuzz:
	$(GO) test ./internal/oracle -fuzz FuzzDifferentialRun -fuzztime $(FUZZTIME) -run '^$$'
	$(GO) test ./internal/oracle -fuzz FuzzConfigCanonical -fuzztime $(FUZZTIME) -run '^$$'

# cover enforces the total-statement coverage floor CI checks (the value
# measured when the floor was introduced, minus a small margin).
COVER_FLOOR ?= 72.0
cover:
	$(GO) test -count=1 -coverprofile=cover.out ./...
	@total=$$($(GO) tool cover -func=cover.out | tail -1 | awk '{print $$3}' | tr -d '%'); \
	echo "total coverage: $$total% (floor $(COVER_FLOOR)%)"; \
	awk -v t=$$total -v f=$(COVER_FLOOR) 'BEGIN { exit (t+0 < f+0) ? 1 : 0 }' || \
		{ echo "ERROR: coverage $$total% fell below the $(COVER_FLOOR)% floor"; exit 1; }

# profile runs the full cached `-exp all` workload under the CPU and heap
# profilers. Inspect with `go tool pprof $(PROFDIR)/cpu.out` (or mem.out);
# this is the workload every hot-loop optimisation is judged against.
PROFDIR ?= profiles
profile:
	mkdir -p $(PROFDIR)
	$(GO) run ./cmd/dpbp -exp all \
		-cpuprofile $(PROFDIR)/cpu.out -memprofile $(PROFDIR)/mem.out \
		> /dev/null
	@echo "wrote $(PROFDIR)/cpu.out and $(PROFDIR)/mem.out"

# serve-smoke drives the dpbpd sweep server end to end: start it,
# submit a sweep twice, schema-check the streamed NDJSON and /metrics,
# and assert the streamed document is byte-identical to the equivalent
# `dpbp -format json` run, and the warm repeat's whole stream, served
# from the sweep memo, byte-identical to the first.
serve-smoke:
	bash scripts/serve_smoke.sh

ci: build vet lint replay-deps test race serve-smoke
