GO ?= go

.PHONY: all build fmt test tier1 race vet lint vettool chaos campaign crash coldbench loc ledger benchfield benchexplore obsreport clean

all: tier1

build:
	$(GO) build ./...

# fmt fails, listing the offending files, when any Go file in the module
# (test files and analyzer fixtures included) is not gofmt-formatted.
fmt:
	@test -z "$$(gofmt -l .)" || { gofmt -l .; exit 1; }

vet:
	$(GO) vet ./...

# lint runs the engine-invariant analyzer suite (internal/analysis) over
# the whole module: detorder, internfreeze, senterr, parshard, plus the
# cross-function dataflow analyzers ctxpoll and hotalloc. Exit status 1
# means findings; suppress a deliberate exception with a //lint:<token>
# comment on the flagged line or the line above (the token is
# per-analyzer: nondet, mutates, sentinel, unsync, poll, alloc;
# //lint:hotpath is a marker that opts a function into the hotalloc
# no-allocation obligation, not a suppression). A hatch that suppresses
# nothing, and a //lint: comment whose first token is neither a hatch nor
# a marker, are findings too.
# `go run ./cmd/lint -json ./...` emits machine-readable diagnostics.
lint:
	$(GO) run ./cmd/lint ./...

# vettool runs the same suite through go vet's -vettool protocol, which
# adds build-cache incrementality, covers _test.go files (senterr), and
# ships cross-package facts between units as .vetx payloads.
vettool:
	$(GO) build -o bin/lint ./cmd/lint
	$(GO) vet -vettool=$(CURDIR)/bin/lint ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/...
	$(GO) test -race -count=10 -run 'TestIndex|TestShardedCache|TestRememberedGraph' ./internal/core
	$(GO) test -race -run 'TestSharded' .
	$(GO) test -race ./internal/obs ./internal/cli ./cmd/lint

# chaos runs the deterministic fault-injection suite under the race
# detector: every named fault point (chaos.Points) is driven through the
# delay/panic/cancel/budget matrix plus seeded random plans, and the
# checkpoint/resume property tests replay interrupted explorations,
# certifications, and field sweeps to bit-identical results.
chaos:
	$(GO) test -race ./internal/chaos
	$(GO) test -race -run 'Checkpoint|Resum|Fault|Panic' ./internal/core ./internal/valence ./internal/resilient

# campaign sweeps the seeded chaos campaign under the race detector: seeds
# × every named fault point × every fault kind, each case run under the
# retry/resume supervisor, asserting zero unrecovered failures and a
# bit-identical result against the fault-free reference pipeline.
campaign:
	$(GO) run -race ./cmd/chaoscampaign -seeds 18 -out /tmp/chaoscampaign_report.json
	@rm -f /tmp/chaoscampaign_report.json

# crash proves checkpoint durability against real process death: a child
# process saving checkpoint generations in a loop is SIGKILLed mid-write
# repeatedly, and each time the parent must load an intact generation and
# resume to the bit-identical graph; a deterministic torn-write/bit-rot
# pass exercises the generation fallback on top.
crash:
	$(GO) run ./cmd/chaoscampaign -crash -crash-kills 4

# coldbench runs the cold end-to-end benchmark harness's own tests (its
# own module): every workload's pinned verdicts, plus the facade calls the
# harness makes, so an engine change that moves a verdict or drops a facade
# function fails here rather than at benchmark time.
coldbench:
	cd coldbench && $(GO) test ./...

# loc prints the non-test Go line count ROADMAP.md tracks (the benchmark
# harness and analyzer fixtures excluded).
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './coldbench/*' ! -path '*/testdata/*' | xargs cat | wc -l

# ledger prints the deterministic cost counts a performance change quotes:
# bytes per edge and warm allocations of explorations, the recorder calls
# and journal events of a traced pipeline (ledger_test.go), and the round
# memo's receiver resolutions, list misses and Deliver runs
# (internal/syncmp/count_test.go), each against its ceiling. `make test`
# runs the same tests without -v.
ledger:
	$(GO) test -v -count=1 -run 'TestColdExploreBytesPerEdge|TestWarmExploreAllocatesNothingPerSource|TestObsCallsPerPipeline' .
	$(GO) test -v -count=1 -run 'TestRoundMemoCounts' ./internal/syncmp

# tier1 is the gate every change must keep green: full build, gofmt, vet,
# the engine-invariant lint suite, the same suite again through go vet's
# -vettool driver (which alone checks _test.go files and passes analyzer
# facts between packages as .vetx files), the complete test suite
# (including the golden experiment outputs in the root package), the race
# detector over the internal packages that use concurrency (parallel
# exploration, the shared successor cache, the worker pool; ./internal/...
# also covers internal/analysis and its fixture tests) and over the root
# package's cache-equivalence tests, the chaos fault-injection suite, the
# supervised chaos campaign and SIGKILL crash harness, a one-iteration
# smoke pass of the field and exploration micro-benchmarks, the
# journaled-run obsreport round trip, and last the cold benchmark
# harness's tests, so that a failure there (its span-coverage check is
# timing-sensitive) still fails tier1 but does not stop the steps before
# it from running.
tier1: build fmt vet lint vettool test race chaos campaign crash benchfield benchexplore obsreport coldbench

# benchfield smoke-runs the valence field micro-benchmark grid (scalar
# reference vs bit-plane sweep, graded vs fixpoint) at one iteration per
# row — it validates the kernels still run and report allocs, not their
# timings.
benchfield:
	$(GO) test ./internal/valence -run '^$$' -bench 'BenchmarkFieldSweep' -benchtime 1x -benchmem

# benchexplore smoke-runs the exploration grid (model × cold/warm ×
# workers) at one iteration per row — it validates the grid still explores
# and reports states/edges, not its timings.
benchexplore:
	$(GO) test . -run '^$$' -bench 'BenchmarkExplore' -benchtime 1x -benchmem

# obsreport smoke-runs the journal analysis toolchain end to end: a plain
# -journal E1 run must journal its phase spans, which obsreport must parse
# into a phase report and a Chrome trace. A journal without a span.begin
# line, or any parse or export failure, exits non-zero.
obsreport:
	$(GO) run ./cmd/experiments -only E1 -journal /tmp/obsreport_smoke.jsonl >/dev/null
	@grep -q '"span.begin"' /tmp/obsreport_smoke.jsonl || { echo "obsreport: journal holds no span.begin event"; exit 1; }
	$(GO) run ./cmd/obsreport -chrome /tmp/obsreport_smoke_trace.json /tmp/obsreport_smoke.jsonl >/dev/null
	@rm -f /tmp/obsreport_smoke.jsonl /tmp/obsreport_smoke_trace.json

clean:
	$(GO) clean ./...
