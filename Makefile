# Development gates. `make check` is what CI runs: vet, build, a
# cross-compile of the platform-split files, the full test suite under
# the race detector with shuffled test order (the serving runtime's
# exactly-once guarantees are race-tested, so -race is not optional;
# -shuffle=on catches inter-test state leaks), twenty more race-detector
# passes over the wall-clock-free rig tests, and a quick pass of the
# repository benchmark. `make lint` layers the project's own invariants
# on top: schemble-vet (the custom analyzer suite in internal/analysis),
# a gofmt gate, and — where the binary is installed — govulncheck.

GO ?= go

.PHONY: check lint vet build cross test test-race rig repo-bench golden chaos obsv bench bench-json overload cache drift fuzz cover

check: vet build cross test-race rig repo-bench

# lint runs the schemble-vet analyzer suite (determinism, outcome
# taxonomy, float equality, test sleeps, context threading, engine
# purity, Plan ownership, guarded-field lock discipline, atomic/plain
# access mixing), fails on unformatted files, and runs govulncheck when
# available (the offline dev container does not ship it; CI installs it).
lint:
	$(GO) run ./cmd/schemble-vet ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping vulnerability scan"; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# cross builds for the platforms CI does not run on, so the non-Linux
# half of a platform-split file pair (internal/serve/wait_other.go) cannot
# rot unseen.
cross:
	GOOS=darwin $(GO) build ./...
	GOOS=windows $(GO) build ./internal/...

test:
	$(GO) test -shuffle=on ./...

test-race:
	$(GO) test -race -shuffle=on ./...

# rig hammers the tests of internal/serve that no wall clock paces: the
# coordinator's dispatch tests (blocking models, a stub scheduler the test
# can hold mid-pass), the turn tests on the same rig (events queued behind a
# held pass are handled together and planned once), the submit-order tests
# (score, cache lookup, admission — with a class held at shed by the backlog
# alone), and the waiter's paths on a clock the test owns. About a second
# per pass. The hand-off the dispatch tests cover — a worker takes its
# staged task while the coordinator is still planning — is the one place
# the two run unsynchronised by an event, so it is race-tested many
# interleavings deep on every push.
rig:
	$(GO) test -race -count=20 \
		-run 'TestDispatchGate|TestStaged|TestTurn|TestSubmitOrder|TestWaiter(FallsBack|Reissues|CoarseOvershoot)' \
		./internal/serve/

# golden regenerates every paper table and figure and fails unless the
# output is byte-identical to the committed results_all_experiments.txt:
# every experiment runs the DP and the decision engine, so a change to
# either that moves any decision shows here (~2 min).
golden:
	$(GO) run ./cmd/schemble exp -id all > golden.out
	cmp golden.out results_all_experiments.txt
	rm -f golden.out

# Fault-injection stress tests: every chaos/fault/drain scenario under the
# race detector with a tight timeout so a hung drain or leaked goroutine
# fails fast instead of stalling the suite.
chaos:
	$(GO) test -race -shuffle=on -timeout 120s \
		-run 'Chaos|Fault|Hedge|Breaker|Degraded|Panic|Drain' \
		./internal/serve/... ./internal/model/... ./internal/httpserve/...

# Observability smoke test: boot the real server binary with a quick-fit
# pipeline, drive traffic, and assert /v1/metrics and /v1/trace expose a
# non-empty, scrapeable picture of the run.
obsv:
	./scripts/obsv_smoke.sh

bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' ./...

# repo-bench is a quick pass of the repository benchmark (BENCHMARK.json,
# bench/): every workload for 2 s on a small fit, every answer and count
# checked. It is a smoke test that the benchmark still builds, runs and
# verifies; the numbers that judge a change come from the full
# `go run ./bench`.
repo-bench:
	$(GO) run ./bench -quick

# bench-json runs cmd/schemble-bench — the scheduler micro-benchmarks
# plus a high-arrival-rate serve soak — and writes the BENCH_dp.json
# perf-trajectory file the ROADMAP tracks. CI runs it as
#   make bench-json BENCH_FLAGS="-quick -baseline BENCH_dp.json"
# which shrinks the soak and fails on a >25% ns/decision regression
# against the committed baseline (the baseline is read before the file
# is rewritten).
BENCH_FLAGS ?=
bench-json:
	$(GO) run ./cmd/schemble-bench -out BENCH_dp.json $(BENCH_FLAGS)

# overload runs cmd/schemble-overload — the multi-class flash-crowd soak
# at 1x/2x/5x of bottleneck capacity — and writes the BENCH_overload.json
# robustness-trajectory file. The run itself gates on priority-ordered
# shedding and the gold class's 5x SLO floor; CI runs it as
#   make overload OVERLOAD_FLAGS="-quick -baseline BENCH_overload.json"
# which additionally fails, per tier, on a gold-SLO regression or on
# aggregate goodput more than 10% below the committed baseline (read before
# the file is rewritten): the simulator is deterministic, so overload control
# that sheds or queues traffic the fleet had room for fails in two seconds.
OVERLOAD_FLAGS ?=
overload:
	$(GO) run ./cmd/schemble-overload -out BENCH_overload.json $(OVERLOAD_FLAGS)

# cache runs cmd/schemble-cache — the Zipf-popularity result-cache soak at
# 2x bottleneck capacity, cache-off vs cache-on over the identical trace —
# and writes the BENCH_cache.json cache-trajectory file. The run itself
# gates on the hit-rate floor and on caching not costing deadlines; CI
# runs it as
#   make cache CACHE_FLAGS="-quick -baseline BENCH_cache.json"
# which additionally fails on a hit-rate regression against the committed
# baseline (read before the file is rewritten).
CACHE_FLAGS ?=
cache:
	$(GO) run ./cmd/schemble-cache -out BENCH_cache.json $(CACHE_FLAGS)

# drift runs cmd/schemble-drift — the drifting-workload soak (latency ramp
# plus difficulty shift over the identical seeded trace), frozen profiles
# vs online adaptation — and writes the BENCH_drift.json
# drift-resilience file. The run itself gates on adaptation strictly
# beating the frozen reference's deadline-miss rate; CI runs it as
#   make drift DRIFT_FLAGS="-quick -baseline BENCH_drift.json"
# which additionally fails on an adapt-on DMR regression against the
# committed baseline (read before the file is rewritten).
DRIFT_FLAGS ?=
drift:
	$(GO) run ./cmd/schemble-drift -out BENCH_drift.json $(DRIFT_FLAGS)

# Short coverage-guided fuzzing bursts over the scheduler and the HTTP
# surface, seeded from testdata/fuzz. FUZZTIME=5m for a deeper local run;
# new crashers land in testdata/fuzz/<target> and become regression
# seeds.
FUZZTIME ?= 20s
fuzz:
	$(GO) test -run '^$$' -fuzz 'FuzzDPSchedule' -fuzztime $(FUZZTIME) ./internal/core/
	$(GO) test -run '^$$' -fuzz 'FuzzHTTPPredict' -fuzztime $(FUZZTIME) ./internal/httpserve/
	$(GO) test -run '^$$' -fuzz 'FuzzSketch' -fuzztime $(FUZZTIME) ./internal/adapt/

# Coverage gate on the paper-critical packages: the scheduler (the paper's
# contribution), the decision engine sim and serve both drive, the serving
# runtime (where concurrency bugs hide), and the control subsystems the
# engine assembles (qos admission, result cache, online adaptation). Each
# entry is package:floor; floors are floors, not targets — raise them as
# coverage grows.
COVER_FLOORS ?= core:90 engine:90 serve:85 qos:85 rcache:85 adapt:85
cover:
	@for pf in $(COVER_FLOORS); do \
		pkg=$${pf%%:*}; floor=$${pf##*:}; \
		$(GO) test -race -coverprofile=cover-$$pkg.out ./internal/$$pkg/ || exit 1; \
		got=$$($(GO) tool cover -func=cover-$$pkg.out | awk '/^total:/ {print substr($$3, 1, length($$3)-1)}'); \
		echo "coverage: internal/$$pkg $$got% (floor $$floor%)"; \
		awk -v g="$$got" -v f="$$floor" 'BEGIN { exit !(g+0 >= f+0) }' || { echo "coverage below floor"; exit 1; }; \
	done
