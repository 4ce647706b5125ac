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
# atomiccheck, cyclecheck, epochcheck, ringcheck, poolcheck,
# directives) over the whole module, _test.go files and external test
# packages included; exit 2 when findings exist. Zero external
# dependencies: the suite and its analysis framework live in
# internal/analysis.
lint:
	$(GO) build -o bin/catcam-lint ./cmd/catcam-lint
	./bin/catcam-lint ./...

# lint-json is the same run, with findings emitted on stdout as a JSON
# array (file/line/column/analyzer/category/message) for editor and CI
# integration.
lint-json:
	$(GO) build -o bin/catcam-lint ./cmd/catcam-lint
	./bin/catcam-lint -json ./...

# lint-selftest proves the suite still bites: the deliberately broken
# canary file behind the catcamselftest build tag must trip every
# analyzer (internal/analysis/selftest asserts one finding per
# analyzer), and the suite with the tag on must exit with status 2
# (findings). Any other status fails: 0 means the canary went
# unflagged, 1 that it no longer type-checks or the driver broke.
lint-selftest:
	$(GO) test ./internal/analysis/...
	$(GO) build -o bin/catcam-lint ./cmd/catcam-lint
	@out=$$(./bin/catcam-lint -tags catcamselftest ./internal/analysis/selftest/ 2>&1); status=$$?; \
	if [ $$status -eq 2 ]; then \
		echo "lint-selftest: canary flagged as expected"; \
	else \
		echo "$$out" >&2; \
		echo "lint-selftest: want exit status 2 (findings) on the canary, got $$status" >&2; exit 1; \
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
