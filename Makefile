# AzureBench reproduction — convenience targets.

GO ?= go

.PHONY: all build vet lint lint-sarif lint-debt test race race-live trace-smoke fuzz-smoke digests bench results quick scenarios examples check clean

all: build vet lint test

# Everything CI runs.
check: build vet lint test race digests

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# bin/azlint is rebuilt only when the linter's own sources change, not on
# every lint run. Fixtures under testdata/ are test inputs, not inputs to
# the binary.
AZLINT_SRCS := $(shell find internal/analysis cmd/azlint -name '*.go' -not -path '*/testdata/*') go.mod

bin/azlint: $(AZLINT_SRCS)
	$(GO) build -o bin/azlint ./cmd/azlint

# Run the azlint analyzer suite (see DESIGN.md §8) over every package in
# standalone mode, suppressing the accepted legacy debt recorded in
# azlint.baseline. Fails on any new diagnostic.
lint: bin/azlint
	bin/azlint -baseline azlint.baseline ./...

# Machine-readable findings for code-scanning upload. Baseline-suppressed
# findings are included, marked with a SARIF suppression.
lint-sarif: bin/azlint
	bin/azlint -sarif -o azlint.sarif -baseline azlint.baseline ./...

# Suppression-debt trend: //azlint:allow directives and azlint.baseline
# entries per analyzer. TestSuppressionDebtCeiling pins the ceilings.
lint-debt: bin/azlint
	bin/azlint -debt -baseline azlint.baseline ./...

# Short native-fuzz smoke runs (go test -fuzz takes one package and one
# target at a time). The wire-codec targets are differential: each
# single-pass codec must agree with its encoding/json or encoding/xml
# reference.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeEntity$$' -fuzztime=10s ./internal/odata
	$(GO) test -run='^$$' -fuzz='^FuzzEncodeEntity$$' -fuzztime=10s ./internal/odata
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeMessage$$' -fuzztime=10s ./internal/queuexml
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeMessageList$$' -fuzztime=10s ./internal/queuexml
	$(GO) test -run='^$$' -fuzz=FuzzHistogramMerge -fuzztime=10s ./internal/metrics
	$(GO) test -run='^$$' -fuzz=FuzzSnapshotCodec -fuzztime=10s ./internal/snapshot

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Concentrated -race pass over the live-mode packages — the ones where
# real goroutines race over shared state (HTTP emulator, SDK retries,
# storage engines, histogram merging). -count=2 reruns each test so
# lazily-initialised state is also exercised warm.
race-live:
	$(GO) test -race -count=2 ./internal/rest/ ./internal/sdk/ \
		./internal/blobstore/ ./internal/queuestore/ ./internal/tablestore/ \
		./internal/cachestore/ ./internal/storecommon/ ./internal/metrics/

# End-to-end aztrace smoke: capture a traced faults run, then require a
# non-empty critical-path reconstruction (the trees must be complete and
# the chains must carry stage attributions).
trace-smoke:
	$(GO) build -o bin/azurebench ./cmd/azurebench
	$(GO) build -o bin/aztrace ./cmd/aztrace
	bin/azurebench -quick -experiment faults -tracefile bin/trace-smoke.jsonl >/dev/null
	bin/aztrace summary bin/trace-smoke.jsonl | grep -q 'causal trees: complete'
	bin/aztrace critpath -n 1 bin/trace-smoke.jsonl | tee bin/trace-smoke.txt | grep -q 'critical path'
	test -s bin/trace-smoke.txt

# Golden digest gate: the digest of every experiment and every example
# scenario at quick scale must match testdata/digests-quick.txt. A change
# meant to move a figure regenerates that file in the same commit.
digests:
	$(GO) build -o bin/azurebench ./cmd/azurebench
	{ bin/azurebench -quick -digest -experiment all && \
		bin/azurebench -quick -digest -scenario-dir examples/scenarios; } | grep '^digest' > bin/digests-quick.txt
	diff testdata/digests-quick.txt bin/digests-quick.txt

# One testing.B bench per paper table/figure plus engine micro-benches.
# Writes a machine-readable baseline (BENCH_<date>.json) for diffing
# across commits; the raw output stays visible on stderr.
bench:
	$(GO) test -run='^$$' -bench=. -benchmem ./... | $(GO) run ./cmd/benchjson -o BENCH_$(shell date +%Y-%m-%d).json

# Regenerate every table and figure at paper scale (~6 min).
results:
	$(GO) run ./cmd/azurebench -experiment all -csv | tee results_full.txt

quick:
	$(GO) run ./cmd/azurebench -quick

# Run the declarative scenario library at quick scale with SLO gating —
# the local mirror of the CI scenario matrix (exits non-zero on any SLO
# failure).
scenarios:
	$(GO) run ./cmd/azurebench -quick -digest -scenario-dir examples/scenarios

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/bagoftasks -workers 6 -tasks 30
	$(GO) run ./examples/gisoverlay -cells 24
	$(GO) run ./examples/mapreduce -workers 6 -points 6000 -iters 8
	$(GO) run ./examples/livestore

clean:
	rm -f test_output.txt bench_output.txt
	rm -rf bin
