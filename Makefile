GO ?= go

# Pinned versions for the networked lint extras (CI installs these;
# they are NOT required locally — lint and lint-selftest are
# self-contained).
STATICCHECK_VERSION ?= 2025.1.1
GOVULNCHECK_VERSION ?= v1.1.4

.PHONY: all build test race vet fmt lint lint-json lint-selftest staticcheck govulncheck bench bench-check

all: build lint test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

fmt:
	gofmt -l -w .

# lint runs the catcam-lint analyzer suite (hotpath, lockcheck,
# atomiccheck, cyclecheck, epochcheck, ringcheck, poolcheck, lockorder,
# directives) over the whole module — _test.go files included — through
# the go vet driver. Zero external dependencies: the suite and its
# analysis framework live in internal/analysis.
lint:
	$(GO) build -o bin/catcam-lint ./cmd/catcam-lint
	$(GO) vet -vettool=$(CURDIR)/bin/catcam-lint ./...

# lint-json runs the same suite through the standalone driver and
# emits findings as a JSON array (file/line/column/analyzer/category/
# message) for editor and CI integration; exit 2 when findings exist.
lint-json:
	$(GO) build -o bin/catcam-lint ./cmd/catcam-lint
	./bin/catcam-lint -json -tests ./...

# lint-selftest proves the suite still bites: the deliberately broken
# canary file behind the catcamselftest build tag must trip every
# analyzer (internal/analysis/selftest asserts one finding per
# analyzer), and the full suite with the tag on must exit nonzero.
lint-selftest:
	$(GO) test ./internal/analysis/...
	$(GO) build -o bin/catcam-lint ./cmd/catcam-lint
	@if $(GO) vet -vettool=$(CURDIR)/bin/catcam-lint -tags catcamselftest ./internal/analysis/selftest/ >/dev/null 2>&1; then \
		echo "lint-selftest: suite failed to flag the canary package" >&2; exit 1; \
	else \
		echo "lint-selftest: canary flagged as expected"; \
	fi

# staticcheck/govulncheck need network access to install; pinned so CI
# results are reproducible.
staticcheck:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...

govulncheck:
	$(GO) run golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION) ./...

# bench runs the layered benchmark (BENCHMARK.json, benchmark/README.md),
# the one bench surface: all four workloads, timed and traced. For one
# workload or a comparison call the script with its flags.
bench:
	bash benchmark/run.sh

# bench-check vets and tests the benchmark. It is its own module
# (replace catcam => ../), so build/test/lint above skip it; this is
# what catches an internal/ API change that breaks the instrument.
bench-check:
	cd benchmark && $(GO) vet . && $(GO) test .
