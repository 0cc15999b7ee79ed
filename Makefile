GO ?= go

.PHONY: build test check loc fmt-check bench bench-speed timing bench-gate bench-smoke equiv-golden chaos-smoke serve-smoke serve-chaos resume-smoke obs-smoke fleet-smoke tenant-smoke fuzz

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# loc prints the non-test Go lines of every package in the root module
# (bench/ is a separate module and is not counted).
loc:
	@$(GO) list -f '{{.ImportPath}}{{range .GoFiles}} {{$$.Dir}}/{{.}}{{end}}' ./... | \
	while read -r pkg files; do printf '%6d %s\n' "$$(cat $$files | wc -l)" "$$pkg"; done

# fmt-check fails on any file gofmt would rewrite.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# check is the pre-merge gate: formatting, static vetting, the harness
# fault-injection drill, the service, fleet and tenant drills, the srvperf
# benchmark's own tests (so a change that stops bench/ building fails here,
# not only in CI), plus the race detector over the packages with
# concurrency (harness worker pool; obsv's sync histograms, which serve
# scrapes while workers observe) and the rewritten LSU hot path.
check: fmt-check chaos-smoke serve-chaos resume-smoke obs-smoke fleet-smoke tenant-smoke bench-smoke
	$(GO) vet ./...
	$(GO) test -race -timeout 45m ./internal/harness ./internal/lsu ./internal/obsv ./internal/serve ./internal/gateway

bench:
	$(GO) test -bench=. -benchmem -run=^$$ ./internal/lsu ./internal/pipeline

# bench-speed is the simulator-throughput check: the core hot-path
# microbenchmarks with allocation reporting (the observability hooks, the
# bitvec disambiguation kernels, the LSU's
# reservation paths outside and inside regions, and whole-pipeline
# cycles/sec, including the gather/scatter path), then a fresh timing report
# (BENCH_harness.json) carrying informational cycles_per_sec deltas against
# the previous run. Wall-clock
# numbers are machine-relative: eyeball them, gate on `make bench-gate`.
bench-speed: build
	$(GO) test -run '^$$' -bench 'ObserveCycle|Pipeline' -benchmem ./internal/pipeline
	$(GO) test -run '^$$' -bench 'Mask128' -benchmem ./internal/bitvec
	$(GO) test -run '^$$' -bench 'Reserve' -benchmem ./internal/lsu
	$(GO) run ./cmd/srvbench -timing BENCH_harness.json

# timing regenerates BENCH_harness.json (per-benchmark wall-clock of the
# experiment harness on this machine).
timing: build
	$(GO) run ./cmd/srvbench -timing BENCH_harness.json

# bench-gate runs the harness fresh and gates its simulated-cycle totals
# against the committed baseline: a >10% geomean regression fails the build.
# GATE_FLAGS narrows the run (e.g. GATE_FLAGS="-benchmarks is,bzip2"); the
# gate skips baseline benchmarks the fresh run did not cover.
GATE_FLAGS ?=
bench-gate: build
	$(GO) run ./cmd/srvbench -timing .bench-fresh.json $(GATE_FLAGS)
	$(GO) run ./cmd/benchgate BENCH_baseline.json .bench-fresh.json; \
	code=$$?; rm -f .bench-fresh.json; exit $$code

# equiv-golden regenerates internal/pipeline/testdata/equiv_digests.golden,
# the per-scenario hashes of the simulator's outputs that
# TestCrossCoreEquivalence checks. Run it only after an intentional change
# to simulated behaviour, and say why in the change's description.
equiv-golden:
	$(GO) test ./internal/pipeline -run '^TestCrossCoreEquivalence$$' -count=1 -update-golden

# bench-smoke runs the srvperf benchmark's own tests: a short run of every
# workload plus its unit tests. bench/ is a separate Go module, so the root
# `go test ./...` never reaches it.
bench-smoke:
	cd bench && $(GO) test ./...

# chaos-smoke is the resilience drill: fault-inject 20% of simulations on a
# single figure and require the run to complete with contained failures
# (exit code 3 — anything else, including a clean 0 or a fatal 1, fails).
chaos-smoke: build
	$(GO) build -o .chaos-smoke.bin ./cmd/srvbench
	./.chaos-smoke.bin -exp fig6 -chaos 0.2 -crashdir chaos-crashes > /dev/null; \
	code=$$?; rm -rf chaos-crashes .chaos-smoke.bin; \
	if [ $$code -ne 3 ]; then echo "chaos-smoke: exit $$code, want 3"; exit 1; fi; \
	echo "chaos-smoke: ok (completed with contained failures)"

# serve-smoke is the service happy path, run under the race detector: one
# simulation submitted, polled and streamed to completion, and the identical
# resubmission answered as a byte-identical cache hit.
serve-smoke: build
	$(GO) test -race -timeout 15m -run '^(TestSubmitPollStreamCache)$$' ./internal/serve

# obs-smoke is the observability acceptance drill, run under the race
# detector: one traced job whose client, admission, queue-wait, execute and
# progress spans share a single TraceID, served by /v1/trace as NDJSON and
# Perfetto, and a Prometheus exposition that parses and accounts for the job.
obs-smoke: build
	$(GO) test -race -timeout 15m -run '^(TestTracePropagationEndToEnd|TestTraceEndpointFormats|TestPrometheusEndpoint)$$' ./internal/serve

# resume-smoke is the checkpoint/resume acceptance drill, run under the race
# detector: a daemon SIGKILLed mid-simulation (machine checkpoints already
# journaled) must resume the job from its last checkpoint on restart and
# finish it byte-identical to an uninterrupted run. It also pins the record
# order that makes a reported result durable: with the journal blocked, no
# waiter or stream learns that a finished job is done.
resume-smoke: build
	$(GO) test -race -timeout 15m -run 'TestSIGKILLMidSimResume|TestPreemptAndResume|TestTerminalRecordBeforeWake' ./internal/serve

# fleet-smoke is the gateway acceptance drill, run under the race detector:
# an in-process 3-node fleet behind the gateway takes a batch of
# submissions, one node is drained and its listener torn down mid-queue, and
# the run must finish with zero lost jobs and results byte-identical to local
# execution; a resubmission is a gateway cache hit, and one client-rooted
# trace spans gateway and node. An async job nobody polls through the gateway
# still settles its rescue record, and the gateway's replies to submissions,
# status polls and streams are the owning node's, byte for byte. A queued job
# whose deadline passed before its owner died is dropped, not rescued.
fleet-smoke: build
	$(GO) test -race -timeout 15m -run '^(TestFleetDrainHandoff|TestGatewayCacheTier|TestGatewayOneTraceEndToEnd|TestGatewaySweepSettlesUnpolledJobs|TestGatewayPassesNodeRepliesVerbatim|TestGatewayDropsExpiredRecords)$$' ./internal/gateway

# tenant-smoke is the multi-tenant isolation drill, run under the race
# detector. At the node: a weight-4 interactive tenant finishes, byte-identical
# to local execution, while a 40-job flood queued ahead of it is still
# backlogged, every job completes and no tenant record is left; the tenant
# table's DRR order, bounds and share properties hold; the rate and
# in-flight-bytes quotas refuse with an honest retry hint; idle tenants leave
# the table, whose sweeps cost O(1) per record; the name "default" is the
# default tenant; each brownout step sheds what it should while cache hits
# are still served. Through the gateway, which enforces no quotas of its own:
# each node's quota refusal hands off to the next node and the last one
# reaches the client untouched, a finished job returns its node byte charge
# with nobody polling the gateway, and /v1/healthz reports the
# least-degraded eligible node's step.
tenant-smoke: build
	$(GO) test -race -timeout 15m -run '^(TestMultiTenantChaos|TestBrownoutSteps|TestFairQueue[A-Za-z]*|TestQuotasRate|TestQuotasInflightBytes|TestIdleTenantsReclaimed|TestTenantSweepAmortised|TestDefaultTenantAlias|TestGatewayTenantQuota|TestGatewayBrownoutAggregate)$$' ./internal/serve ./internal/gateway

# fuzz runs each fuzz target for 30s on two workers (go test fuzzes one
# target per invocation); their seed corpora run in every plain `go test`.
# -fuzzminimizetime 1x bounds minimisation of each new interesting input to
# one run: at the default (60s) minimisation stalls a 30s run at 0 execs/s.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzParseTenantOverride$$' -fuzztime 30s -fuzzminimizetime 1x -parallel 2 ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzCachedStatus$$' -fuzztime 30s -fuzzminimizetime 1x -parallel 2 ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzCompileBlock$$' -fuzztime 30s -fuzzminimizetime 1x -parallel 2 ./internal/compiler

# serve-chaos is the service-layer resilience drill, run under the race
# detector: remote submissions through a seeded fault-injecting transport
# must come back bit-identical, a SIGKILLed daemon must recover its journal
# on restart (completed results byte-identical from cache, interrupted jobs
# re-run), and SIGTERM must drain gracefully with exit 0. The client's two
# retry rules are pinned too: RoundTrip retries transport failures only and
# hands back any reply verbatim, the typed calls back off on 429/503/504 and
# an open circuit, never sooner than the server's retry hint.
serve-chaos: build
	$(GO) test -race -timeout 15m -run 'TestChaos|TestKillRestartRecovery|TestGracefulDrain|TestJournal|TestClientRetryDisciplines' ./internal/serve
