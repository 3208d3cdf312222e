# vqoe — reproduction of "Measuring Video QoE from Encrypted Traffic" (IMC 2016)

GO ?= go

.PHONY: all build test test-fast vet bench bench-engine cover loc report report-quick figures clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# the default test run is race-enabled across every package; the live
# engine, HTTP pipeline, and metrics collector are all concurrent
test:
	$(GO) test -race ./...

# quick pass without the race detector's overhead
test-fast:
	$(GO) test ./...

# the benchmark of record (BENCHMARK.json): four wire-fed workloads
# against the production server surface; bench/README.md has the flags
# and the paired-run rule every performance claim follows
bench:
	$(GO) run ./bench

# the close path's featurization on its own: B/op and allocs/op must
# read 0 (CI gates on them); engine throughput is `make bench`
bench-engine:
	$(GO) test -run xxx -bench 'SessionEval' -benchmem .

cover:
	$(GO) test -cover ./...

# non-test Go lines outside bench/ — the number ROADMAP's "fewer
# non-test lines" criterion tracks (bar: 21,500)
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' | xargs cat | wc -l

# regenerate the paper-vs-measured comparison (about a minute)
report:
	$(GO) run ./cmd/qoereport > EXPERIMENTS.md

report-quick:
	$(GO) run ./cmd/qoereport -quick

# standalone HTML with the reproduced figures as SVG
figures:
	$(GO) run ./cmd/qoereport -quick -html figures.html > /dev/null

clean:
	rm -f figures.html *.model *.pcap *.pcap.hosts
