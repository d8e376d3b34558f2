# Convenience targets; CI runs the same commands (see
# .github/workflows/ci.yml).

GO ?= go

.PHONY: build test race lint lint-fix figures bench bench-check profile sweep-smoke trace-smoke serve-smoke variant-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Static analysis: go vet + the pcmaplint suite, plus staticcheck and
# govulncheck when installed. See scripts/lint.sh.
lint:
	sh scripts/lint.sh

# Apply pcmaplint's suggested fixes in place (currently the typederr
# ==/!= -> errors.Is rewrites); run gofmt afterwards if imports moved.
lint-fix:
	$(GO) run ./cmd/pcmaplint -fix ./...

# Regenerate the paper's headline figures (small budgets; see README
# for full-scale runs).
figures:
	$(GO) run ./cmd/pcmapsim -exp headline

# Run the hot-path benchmark suite and rewrite BENCH_3.json's
# "current" section, at CI's 200ms benchtime (B/op depends on it).
bench:
	sh scripts/bench.sh

# Same suite, but fail on allocs/op or B/op regressions against the
# committed ledger instead of rewriting it. CI runs this.
bench-check:
	sh scripts/bench.sh -check

# End-to-end resume check: run a sweep with -cache, SIGINT it, re-run
# with -resume, and require byte-identical stdout. CI runs this.
sweep-smoke:
	sh scripts/sweep_smoke.sh

# Observability smoke test: a traced adhoc run must keep stdout
# byte-identical to an untraced one and emit valid Chrome trace_event
# JSON with per-bank spans and stall instants. CI runs this.
trace-smoke:
	sh scripts/trace_smoke.sh

# End-to-end service check: start `pcmapsim serve`, post jobs over real
# sockets (repeat answers must be byte-identical), reject an invalid
# job, scrape /metrics, and SIGTERM into a clean drain. CI runs this.
serve-smoke:
	sh scripts/serve_smoke.sh

# Variant-registry check: -list-variants names every registered system
# and the follow-on variants (PALP, RWoW-DCA) run end to end with their
# variant-specific metrics nonzero. CI runs this.
variant-smoke:
	sh scripts/variant_smoke.sh

# Capture CPU and heap profiles of a full figure regeneration; inspect
# with `go tool pprof cpu.prof` (see DESIGN.md §8).
profile:
	$(GO) run ./cmd/pcmapsim -exp fig8 -cpuprofile cpu.prof -memprofile mem.prof
	@echo 'wrote cpu.prof and mem.prof; open with: go tool pprof cpu.prof'
