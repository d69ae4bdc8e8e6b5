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

.PHONY: check lint vet build cross test test-race rig repo-bench golden snapshot chaos obsv bench micro-gate fuzz cover

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
# (score, cache lookup, admission — with a class held at shed by a backlog
# of blocked models on the frozen clock), a submission held in its score
# across Stop (rejected, never stranded), and the waiter's paths on a clock the test owns. About a second
# per pass. The hand-off the dispatch tests cover — a worker takes its
# staged task while the coordinator is still planning — is the one place
# the two run unsynchronised by an event, so it is race-tested many
# interleavings deep on every push. Then the tests on the frozen test
# clock — the sim/serve equivalence replays, the turn and the deadline
# tests, the breaker and fault tests, and the chaos replays that must
# repeat themselves, twice and at four TimeScales — run twenty times at
# one and at two CPUs: each run must make the same decisions. Last, the three soaks of
# cmd/schemble-bench replay on that clock twice each, at one and at two
# CPUs, and must write the same report (TestSoakIsOneRun, ~3 s a pass).
rig:
	$(GO) test -race -count=20 \
		-run 'TestDispatchGate|TestStaged|TestTurn|TestSubmitOrder|TestSubmitScoredAcrossStop|TestWaiter(FallsBack|Reissues|CoarseOvershoot)' \
		./internal/serve/
	$(GO) test -count=20 -cpu 1,2 \
		-run 'SimServeEquivalence|Turn|Deadline|Breaker|TestServe(Degraded|Hedge|NoFaults|Panic)|TestFaultFree|TestFaultTolerance|TestChaosReplay|TestReplayIgnoresTimeScale' \
		./internal/serve/
	$(GO) test -count=1 -cpu 1,2 -run 'TestSoakIsOneRun' ./cmd/schemble-bench/

# golden regenerates every paper table and figure and fails unless the
# output is byte-identical to the committed results_all_experiments.txt:
# every experiment runs the DP and the decision engine, so a change to
# either that moves any decision shows here (~2 min).
golden:
	$(GO) run ./cmd/schemble exp -id all > golden.out
	cmp golden.out results_all_experiments.txt
	rm -f golden.out

# snapshot refits the shipped deployment (text matching, N 4000, seed 7)
# with pipeline.Fit and rewrites internal/pipeline/shipped.snapshot, the
# fitted pipeline pipeline.Build embeds and restores instead of fitting
# (~1 s). Run it after any change that moves a fitted bit of that
# deployment; until then internal/pipeline's TestShippedSnapshotCurrent
# fails, as a moved decision fails `golden`. The touch lets the generator
# build when the file is missing.
snapshot:
	touch internal/pipeline/shipped.snapshot
	$(GO) run internal/pipeline/gensnapshot.go > snapshot.out
	mv snapshot.out internal/pipeline/shipped.snapshot

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

# micro-gate runs the planner, cold-start, runtime and HTTP micro-benchmarks
# (go test benchmarks in internal/core, internal/nn, internal/pipeline,
# internal/serve and internal/httpserve) in three alternating pairs against the parent commit, built from a git archive of
# HEAD~1, and fails a micro whose median change/parent ns/op ratio is above
# 1.25 with every pair slower (scripts/micro_pairs.sh, about 70 s on 2
# cores after the build). Both sides run on one box in one job, so the
# box's speed cancels. CI runs the script against the push's or pull
# request's base instead of HEAD~1.
micro-gate:
	./scripts/micro_pairs.sh HEAD~1

# bench-<scenario> runs one scenario of cmd/schemble-bench and writes its
# BENCH_<scenario>.json trajectory file:
#   overload  the classed flash-crowd soak at 1x/2x/5x of capacity
#   cache     the Zipf result-cache soak, cache-off vs cache-on
#   drift     the drifting-workload soak, frozen profiles vs adaptation
# Each run gates itself (see the scenario's gate function). CI runs
#   make bench-overload BENCH_FLAGS="-baseline BENCH_overload.json"
# and the same for cache and drift, which fails on a regression against
# the committed file (read before it is rewritten; a baseline that cannot be
# read fails the run). Each soak replays on the serving runtime in virtual
# time, one run per seed and under a second, so overload control that
# sheds traffic the fleet had room for fails in seconds.
BENCH_FLAGS ?=
bench-%:
	$(GO) run ./cmd/schemble-bench -scenario $* $(BENCH_FLAGS)

# Short coverage-guided fuzzing bursts over the scheduler, the HTTP
# surface, the latency histogram (every geometry the runtime builds) and
# the bounded k-means (bitwise against its reference), seeded from
# testdata/fuzz. FUZZTIME=5m for a deeper local run;
# new crashers land in testdata/fuzz/<target> and become regression
# seeds.
FUZZTIME ?= 20s
fuzz:
	$(GO) test -run '^$$' -fuzz 'FuzzDPSchedule' -fuzztime $(FUZZTIME) ./internal/core/
	$(GO) test -run '^$$' -fuzz 'FuzzHTTPPredict' -fuzztime $(FUZZTIME) ./internal/httpserve/
	$(GO) test -run '^$$' -fuzz 'FuzzHistogram' -fuzztime $(FUZZTIME) ./internal/obsv/
	$(GO) test -run '^$$' -fuzz 'FuzzFit' -fuzztime $(FUZZTIME) ./internal/cluster/

# Coverage gate on the paper-critical packages: the scheduler (the paper's
# contribution), the decision engine sim and serve both drive, the serving
# runtime (where concurrency bugs hide), the control subsystems the
# engine assembles (qos admission, result cache, online adaptation), and
# the histogram whose quantiles the adaptation planner reads (obsv). Each
# entry is package:floor; floors are floors, not targets — raise them as
# coverage grows. Coverage runs without the race detector: test-race
# (`make check`) already runs every one of these tests under -race, and
# coverage inside the race detector took the DP tests past go test's
# ten-minute timeout.
COVER_FLOORS ?= core:90 engine:90 serve:85 qos:85 rcache:85 adapt:85 obsv:85
cover:
	@for pf in $(COVER_FLOORS); do \
		pkg=$${pf%%:*}; floor=$${pf##*:}; \
		$(GO) test -coverprofile=cover-$$pkg.out ./internal/$$pkg/ || exit 1; \
		got=$$($(GO) tool cover -func=cover-$$pkg.out | awk '/^total:/ {print substr($$3, 1, length($$3)-1)}'); \
		echo "coverage: internal/$$pkg $$got% (floor $$floor%)"; \
		awk -v g="$$got" -v f="$$floor" 'BEGIN { exit !(g+0 >= f+0) }' || { echo "coverage below floor"; exit 1; }; \
	done
