#!/bin/sh
# Lint entry point, shared by `make lint` and CI.
#
# Always runs:
#   go vet        — the standard vet checks
#   pcmaplint     — the project's eight custom analyzers (determinism
#                   and wall-clock bans, unit safety, metrics lifecycle,
#                   typed errors, float comparisons, lock discipline,
#                   goroutine lifecycle, channel ownership); see
#                   DESIGN.md "Simulator invariants" and "Concurrency
#                   invariants"
#
# Runs when installed (CI installs pinned versions; locally they are
# optional because this repository builds offline with no dependencies
# beyond the Go toolchain):
#   staticcheck
#   govulncheck
#
# Every tool runs even when an earlier one fails, so one invocation
# reports everything; the exit code is non-zero if any tool failed.
set -u

cd "$(dirname "$0")/.."

failed=''
run() {
	name=$1
	shift
	echo ">> $name"
	if ! "$@"; then
		failed="$failed $name"
	fi
}

run 'go vet' go vet ./...

# pcmaplint runs go vet itself by default; -vet=false avoids doing it
# twice. -summary prints the per-analyzer finding counts.
run 'pcmaplint' go run ./cmd/pcmaplint -vet=false -summary ./...

if command -v staticcheck >/dev/null 2>&1; then
	run 'staticcheck' staticcheck ./...
else
	echo '>> staticcheck not installed; skipping (CI runs it)'
fi

if command -v govulncheck >/dev/null 2>&1; then
	run 'govulncheck' govulncheck ./...
else
	echo '>> govulncheck not installed; skipping (CI runs it)'
fi

if [ -n "$failed" ]; then
	echo "lint FAILED:$failed"
	exit 1
fi
echo 'lint OK'
