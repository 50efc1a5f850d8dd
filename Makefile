# Developer entry points for the monoclass reproduction.
#
#   make check             build + vet (incl. gofmt gate) + full test suite
#   make race              race-detector pass over the whole module
#   make conformance       quick differential/metamorphic engine run (CI gate)
#   make conformance-long  soak run: more trials, larger instances
#   make conformance-mutate self-test: injected bug must be caught
#   make bench-maxflow     regenerate BENCH_maxflow.json (flow-solver engine)
#   make bench-classify    regenerate BENCH_classify.json (anchor index vs scalar)
#   make bench-serve       regenerate BENCH_serve.json (serving layer loadgen)
#   make bench-shard       sharded-fleet loadgen smoke (replica rows only)
#   make bench-online      regenerate BENCH_online.json (incremental vs retrain)
#   make bench-problem     regenerate BENCH_problem.json (prepared-problem lifecycle)
#   make bench-active      regenerate BENCH_active.json (active pipeline phases)
#   make profile-prepare   CPU+heap profile of the prepare-stage sweep (pprof files)
#   make ci-smoke          one seed-cover prepare and one warm-started matching under the race detector
#   make loc               count non-test Go lines (the size ROADMAP tracks)
#   make deadcode          list the module's functions that no program links
#   make fuzz-chains       short differential fuzz of the chain decomposition
#   make fuzz-passive      short fuzz of the ∞-edge builder vs the literal network
#   make fuzz-online       short fuzz pass over the online delta intake
#   make fuzz-problem      short fuzz pass over problem deserialization
#   make fuzz-serve        short differential fuzz of the classify wire codec
#   make fuzz-learn        short differential fuzz of the /learn body
#   make fuzz-classify     short differential fuzz of the anchor index vs the scalar scan
#   make fuzz-csv          short fuzz pass over the CSV reader
#   make fuzz-train        short fuzz of CSV → Prepare → Solve against the exhaustive optimum
#   make fuzz-model        short fuzz passes over the model reader and its round trip
#   make fuzz-maxflow      short differential fuzz of the max-flow solvers
#   make serve-stress      long hot-swap/soak stress of the serving layer
#   make verify            everything CI gates on, in order
#   make verify-full       verify + the benchmark regenerations

GO ?= go
GOFMT ?= gofmt

.PHONY: all build vet test race conformance conformance-long conformance-mutate bench-maxflow bench-classify bench-serve bench-shard bench-online bench-problem bench-active profile-prepare ci-smoke loc deadcode fuzz-chains fuzz-passive fuzz-online fuzz-problem fuzz-serve fuzz-learn fuzz-classify fuzz-csv fuzz-train fuzz-model fuzz-maxflow serve-stress verify verify-full clean

all: check

build:
	$(GO) build ./...

# vet also gates formatting: it fails when gofmt would change any Go
# file (.bench_build/ holds the benchmark's build caches, not sources).
vet:
	$(GO) vet ./...
	@unformatted="$$($(GOFMT) -l $$(find . -name '*.go' -not -path './.bench_build/*'))"; \
	if [ -n "$$unformatted" ]; then echo "gofmt -l lists unformatted files:"; echo "$$unformatted"; exit 1; fi

test: build
	$(GO) test ./...

check: build vet test

race:
	$(GO) test -race ./...

# Quick conformance gate: 200 seeded trials through every redundant
# solver pair and metamorphic invariant, under the race detector.
# Divergences shrink into internal/conformance/testdata/repro-*.json.
conformance:
	$(GO) test -race -run 'TestConformance|TestReplayRepros|TestGoldenFigure1' -count=1 -v ./internal/conformance

# Soak mode: 2000 trials on the enlarged size schedule.
conformance-long:
	CONFORMANCE_TRIALS=2000 CONFORMANCE_LONG=1 $(GO) test -race -run TestConformance -count=1 -v -timeout 30m ./internal/conformance

# Harness self-test: build a deliberately off-by-one solver copy and
# assert the engine detects, shrinks, and persists a replayable repro.
conformance-mutate:
	$(GO) test -tags conformance_mutation -run TestMutation -count=1 ./internal/conformance

# Machine-readable numbers for the CSR flow-solver engine: every
# registered max-flow solver on passive-construction networks and
# worst-case families, plus the workspace zero-allocation re-solve
# check (cmd/benchtab -maxflow). Takes ~1min; add QUICK=1 for a
# seconds-scale smoke run that overwrites nothing.
bench-maxflow:
ifdef QUICK
	$(GO) run ./cmd/benchtab -maxflow /tmp/BENCH_maxflow.quick.json -seed 42 -quick
else
	$(GO) run ./cmd/benchtab -maxflow BENCH_maxflow.json -seed 42
endif

# Machine-readable numbers for the anchor classification index: the
# scalar anchor scan vs the indexed per-point path vs the batch kernel
# across (queries, dimension, anchors) cells (cmd/benchtab -classify). Takes ~30s; add QUICK=1 for a seconds-scale smoke run
# that overwrites nothing.
bench-classify:
ifdef QUICK
	$(GO) run ./cmd/benchtab -classify /tmp/BENCH_classify.quick.json -seed 42 -quick
else
	$(GO) run ./cmd/benchtab -classify BENCH_classify.json -seed 42
endif

# Throughput/latency table for the serving layer across batching
# configurations (cmd/loadgen). Takes ~1min; add QUICK=1 for a
# seconds-scale smoke run that overwrites nothing.
bench-serve:
ifdef QUICK
	$(GO) run ./cmd/loadgen -out /tmp/BENCH_serve.quick.json -seed 42 -quick
else
	$(GO) run ./cmd/loadgen -out BENCH_serve.json -seed 42
endif

# Sharded serving smoke: replica-fleet rows only (bN+rN configs drive
# an in-process fleet behind the consistent-hash router), plus the
# shard package under the race detector. Never overwrites
# BENCH_serve.json — regenerate that with `make bench-serve`, whose
# default configs include the replica rows.
bench-shard:
	$(GO) test -race -count=1 ./internal/shard
	$(GO) run ./cmd/loadgen -out /tmp/BENCH_shard.quick.json -seed 42 -quick -configs b64+r2,b64@2+r3

# Amortized per-delta cost of the incremental learner (exact and lazy
# rebuild cadences) against full retrains on the same delta trace
# (cmd/benchtab -online). Takes ~2min; add QUICK=1 for a seconds-scale
# smoke run that overwrites nothing.
bench-online:
ifdef QUICK
	$(GO) run ./cmd/benchtab -online /tmp/BENCH_online.quick.json -seed 42 -quick
else
	$(GO) run ./cmd/benchtab -online BENCH_online.json -seed 42
endif

# Prepared-problem lifecycle sweep: prepare / first-solve / warm
# re-solve wall times, per-stage prepare timings (matrix / decompose /
# network), and peak and retained memory across n up to 10⁶ under
# default options, one row per (n, d, shape) — the d=3 rows take the
# dense route up to n=65536 (the exact-decomposition limit, a 256 MiB
# transient triangle) (cmd/benchtab -problem). Takes a few minutes; add
# QUICK=1 for a seconds-scale smoke run that overwrites nothing.
bench-problem:
ifdef QUICK
	$(GO) run ./cmd/benchtab -problem /tmp/BENCH_problem.quick.json -seed 42 -quick
else
	$(GO) run ./cmd/benchtab -problem BENCH_problem.json -seed 42
endif

# Active pipeline (Theorems 2+3) phase by phase: decompose, probe and
# solve(Σ) times and allocated bytes, median and range over 5 repeats,
# on the 16-chain sets at d=2 and d=3 up to n=262,144 (d=3 past the
# exact limit takes the greedy cover) (cmd/benchtab -active). Takes
# ten seconds or so and a 256 MiB transient triangle at n=65536 d=3; add
# QUICK=1 for a seconds-scale smoke run that overwrites nothing.
bench-active:
ifdef QUICK
	$(GO) run ./cmd/benchtab -active /tmp/BENCH_active.quick.json -seed 42 -quick
else
	$(GO) run ./cmd/benchtab -active BENCH_active.json -seed 42
endif

# Profile where prepare time goes: run the lifecycle sweep (quick
# schedule) with CPU and heap profiles enabled, then inspect with
# `go tool pprof prepare.cpu.pprof`.
profile-prepare:
	$(GO) run ./cmd/benchtab -problem /tmp/BENCH_problem.profile.json -seed 42 -quick \
		-cpuprofile prepare.cpu.pprof -memprofile prepare.mem.pprof
	@echo "wrote prepare.cpu.pprof and prepare.mem.pprof (go tool pprof <file>)"

# CI quick gate under the race detector, at n=512 d=3: one Prepare on
# the dense route's seed cover, whose solve must match the literal
# Section 5.1 construction, and one chains.DecomposeRoute warm-started
# matching on the same points, whose minimum cover must solve to the
# same optimum.
ci-smoke:
	$(GO) test -race -run TestPrepareWarmStartSmoke -count=1 -v ./internal/problem

# Non-test Go lines outside perfbench/ (its own module) and the
# benchmark's build caches: the code size tracked beside the benches.
loc:
	@files="$$(find . -name '*.go' -not -name '*_test.go' -not -path './perfbench/*' -not -path './.bench_build/*')"; \
	echo "$$(cat $$files | wc -l) non-test Go lines in $$(echo "$$files" | wc -l) files"

# Functions declared in the module's non-main packages that no program
# links: every main package and perfbench is built with inlining off
# (so an inlined call still leaves its symbol), and a declared name
# missing from every binary's symbol table (go tool nm) is printed.
# Methods print as pkg.Type.Method; generic brackets, nested ones
# included, are stripped on both sides. Names that only tests reach
# show up here too.
deadcode:
	@tmp="$$(mktemp -d)"; trap 'rm -rf "$$tmp"' EXIT; set -e; \
	for p in $$($(GO) list -f '{{if eq .Name "main"}}{{.ImportPath}}{{end}}' ./...); do \
		$(GO) build -gcflags=all=-l -o "$$tmp/bin/$$(basename $$p)" $$p; \
	done; \
	$(GO) -C perfbench build -gcflags=all=-l -o "$$tmp/bin/perfbench" .; \
	mod="$$($(GO) list -m)"; \
	for b in "$$tmp"/bin/*; do $(GO) tool nm "$$b"; done | \
		awk '$$2 == "T" || $$2 == "t" { sub(/^ *[0-9a-f]+ [Tt] /, ""); print }' | grep "^$$mod[./]" | \
		sed -E -e ':a' -e 's/\[[^][]*\]//; ta' -e 's/\(\*?([^)]*)\)/\1/' | sort -u > "$$tmp/linked"; \
	$(GO) list -f '{{if ne .Name "main"}}{{range .GoFiles}}{{$$.ImportPath}} {{$$.Dir}}/{{.}}{{"\n"}}{{end}}{{end}}' ./... | \
	while read -r pkg file; do \
		grep '^func ' "$$file" | sed -E -e ':a' -e 's/\[[^][]*\]//; ta' | \
			sed -E -e 's/^func \(([A-Za-z0-9_]+ )?\*?([A-Za-z0-9_]+)\) ([A-Za-z0-9_]+).*/\2.\3/; t' \
				-e 's/^func ([A-Za-z0-9_]+).*/\1/' | \
			grep -v '^init$$' | sed "s|^|$$pkg.|"; \
	done | sort -u > "$$tmp/declared"; \
	comm -23 "$$tmp/declared" "$$tmp/linked"

# Differential fuzz of the bit-packed chain decomposition against its
# scalar oracle, on up to 130 points so matrix rows span three words.
fuzz-chains:
	$(GO) test -run FuzzDecomposeKernelVsScalar -fuzz FuzzDecomposeKernelVsScalar -fuzztime 30s ./internal/chains

# Fuzz of the one ∞-edge builder on up to 130 points: sound edges
# within the label-split budget, label-0 → label-1 reachability equal
# to dominance, identical edges from every view, and the literal
# network's WErr, assignment and anchors.
fuzz-passive:
	$(GO) test -run FuzzPassiveNetwork -fuzz FuzzPassiveNetwork -fuzztime 30s ./internal/passive

# Coverage-guided fuzz of the online updater's byte-decoded delta
# traces: no panics, contract-only rejections, retrain equivalence.
fuzz-online:
	$(GO) test -run FuzzOnlineTrace -fuzz FuzzOnlineTrace -fuzztime 30s ./internal/online

# Coverage-guided fuzz of problem deserialization: arbitrary bytes
# through Read must reject cleanly or yield a solvable problem that
# survives a second round trip bit-for-bit; one of at most 12 points
# must also solve to passive.NaiveSolve's optimum.
fuzz-problem:
	$(GO) test -run FuzzProblemRoundTrip -fuzz FuzzProblemRoundTrip -fuzztime 30s ./internal/problem

# Differential fuzz of the classify wire codec against encoding/json:
# the same accepted bodies (bar null coordinates and trailing data, which
# the codec rejects), bit-identical points, byte-identical responses.
fuzz-serve:
	$(GO) test -run FuzzClassifyWire -fuzz FuzzClassifyWire -fuzztime 30s ./internal/serve

# Differential fuzz of the /learn ingress: arbitrary bodies through a
# fresh server's handler must get an encoding/json reference's status,
# and a 202 must apply exactly the reference's inserts and deletes.
fuzz-learn:
	$(GO) test -run FuzzLearnBody -fuzz FuzzLearnBody -fuzztime 30s ./internal/serve

# Differential fuzz of the anchor index (per-point and batch kernel)
# against the scalar anchor scan, NaN and ±Inf queries included.
fuzz-classify:
	$(GO) test -run FuzzClassifyIndexedVsScalar -fuzz FuzzClassifyIndexedVsScalar -fuzztime 30s ./internal/classidx

# Differential fuzz of the CSV ingress: arbitrary bytes through
# ReadCSV must get the encoding/csv reference's verdict and values,
# and what it accepts must round-trip losslessly.
fuzz-csv:
	$(GO) test -run FuzzReadCSV -fuzz FuzzReadCSV -fuzztime 30s ./internal/dataset

# End-to-end fuzz of the training path: any CSV of at most 12 records
# that ReadCSV accepts must prepare and solve into a model that is
# monotone on its points, reaches passive.NaiveSolve's optimum and
# rescores to the error it reports.
fuzz-train:
	$(GO) test -run FuzzTrainCSV -fuzz FuzzTrainCSV -fuzztime 30s ./internal/problem

# Coverage-guided fuzz of the model ingress (POST /model): arbitrary
# bytes through the model reader, then saved models through a write/read
# round trip. go test fuzzes one target per run, so this runs two.
fuzz-model:
	$(GO) test -run FuzzReadModel -fuzz FuzzReadModel -fuzztime 30s ./internal/classifier
	$(GO) test -run FuzzModelRoundTrip -fuzz FuzzModelRoundTrip -fuzztime 30s ./internal/classifier

# Differential fuzz of the max-flow solvers on byte-decoded networks:
# the same flow value and boundedness from every solver, and min-cut
# duality on bounded ones.
fuzz-maxflow:
	$(GO) test -run FuzzMaxflowSolversAgree -fuzz FuzzMaxflowSolversAgree -fuzztime 30s ./internal/maxflow

# Heavier serving-layer adversarial pass: the hot-swap storm and HTTP
# soak tests with boosted iteration counts, under the race detector.
serve-stress:
	SERVE_STRESS_N=50000 SERVE_SOAK_SECONDS=10 $(GO) test -race -run 'TestHotSwapStorm|TestHTTPSoak' -count=1 -v -timeout 20m ./internal/serve

verify: build vet test race conformance conformance-mutate

verify-full: verify bench-maxflow bench-classify bench-serve bench-online bench-problem bench-active

clean:
	$(GO) clean ./...
