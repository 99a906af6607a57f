GO ?= go

.PHONY: build vet test race bench fuzz-short smoke-stream smoke-graph

build:
	$(GO) build ./...

# vet is the static gate: go vet plus a gofmt cleanliness check.
vet:
	$(GO) vet ./...
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# The default test target runs the static gate, the plain suite, and the
# race suite: the parallel experiment engine's frozen-trace/space design
# (memoized cells replayed from many goroutines) must keep the race
# detector silent on every change.
# The race suite gets an explicit per-package timeout: the harness
# package replays full (quick-scale) experiments under the detector's
# ~10x slowdown and brushes against go test's default 10m limit.
test: build vet
	$(GO) test ./...
	$(GO) test -race -timeout 20m ./...

race:
	$(GO) test -race -timeout 20m ./...

bench:
	$(GO) test -bench . -benchmem -run '^$$' ./...

# fuzz-short runs every native fuzz target for a few seconds each,
# starting from the committed corpora in testdata/fuzz/. It is the CI
# smoke for the metamorphic harness; long exploratory sessions use
# `go test -fuzz=<target> -fuzztime=10m ./internal/<pkg>/` directly.
FUZZTIME ?= 10s
fuzz-short:
	$(GO) test -run '^$$' -fuzz '^FuzzRead$$' -fuzztime $(FUZZTIME) ./internal/trace/
	$(GO) test -run '^$$' -fuzz '^FuzzBuilder$$' -fuzztime $(FUZZTIME) ./internal/trace/
	$(GO) test -run '^$$' -fuzz '^FuzzReadEdgeList$$' -fuzztime $(FUZZTIME) ./internal/graph/
	$(GO) test -run '^$$' -fuzz '^FuzzBuildStream$$' -fuzztime $(FUZZTIME) ./internal/graph/
	$(GO) test -run '^$$' -fuzz '^FuzzLinkLaneReserve$$' -fuzztime $(FUZZTIME) ./internal/hmc/
	$(GO) test -run '^$$' -fuzz '^FuzzTimeq$$' -fuzztime $(FUZZTIME) ./internal/cpu/

# smoke-stream runs the million-vertex streaming smoke test under a
# constrained GC target: a 1M-vertex BFS, which spills by graph size
# alone, traced through the spill pipeline and replayed end to end must
# fit a 1GiB heap — less than half of what the materialized trace alone
# would need (~2GB, 127M records x 16B), on top of the ~600MB graph +
# property live set both pipelines share. It also renders every quick
# experiment with every trace spilled and with every trace in memory,
# and requires byte-identical tables (TestStreamTableIdentityAll).
smoke-stream:
	GRAPHPIM_STREAM_SMOKE=1 GOMEMLIMIT=1GiB \
		$(GO) test -run '^(TestStreamSmoke|TestStreamTableIdentityAll)$$' -v -timeout 30m ./internal/harness/

# smoke-graph runs the paper-scale graph smokes. First the 11M-vertex
# twitter-shaped build (Table VII: 11M/85M) under a GC target below the
# would-be []Edge bytes (~1016MB): the streaming two-pass build's peak —
# final CSR included — must fit where the old edge list alone would not
# have. Then the LDBC-1M byte-identity check against the legacy builder,
# which needs headroom for the legacy side's materialized edge list
# (that being the point).
smoke-graph:
	GRAPHPIM_GRAPH_SMOKE=1 GOMEMLIMIT=950MiB \
		$(GO) test -run '^TestGraphSmokeTwitter11M$$' -v -timeout 30m ./internal/graph/
	GRAPHPIM_GRAPH_SMOKE=1 GOMEMLIMIT=6GiB \
		$(GO) test -run '^TestStreamEquivalenceMillion$$' -v -timeout 30m ./internal/graph/
