// Command pcmapbench turns `go test -bench` output into the committed
// benchmark ledger (BENCH_3.json) and checks fresh runs against it.
//
// Two modes:
//
//	go test -bench=. -benchmem . | pcmapbench -out BENCH_3.json
//	    parses the run and rewrites the ledger's "current" section.
//
//	go test -bench=. -benchmem . | pcmapbench -check BENCH_3.json
//	    fails (exit 1) when the fresh run's allocs/op or B/op exceed
//	    the ledger's by more than the slack checkLedger documents — or
//	    by anything at all when the ledger records 0 (allocation-free
//	    is a contract, not a measurement). Allocations are the
//	    regression gate because, unlike ns/op, they do not move with
//	    CI machine load: reintroducing a boxed event or a per-arm
//	    closure trips it immediately.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"pcmap/internal/cli"
)

// Result is one benchmark's measured numbers.
type Result struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// Ledger is the BENCH_3.json document: the numbers this tree produces.
type Ledger struct {
	Current map[string]Result `json:"current"`
}

// defineFlags builds the flag surface (pinned by TestFlagSurface).
func defineFlags(fs *flag.FlagSet) (out, check *string) {
	return cli.Out(fs, "", "write/update this ledger from stdin"),
		fs.String("check", "", "compare stdin against this ledger's allocs/op and B/op")
}

func main() {
	out, check := defineFlags(flag.CommandLine)
	flag.Parse()
	if (*out == "") == (*check == "") {
		fatal(fmt.Errorf("need exactly one of -out or -check"))
	}

	run, err := parse(bufio.NewScanner(os.Stdin))
	if err != nil {
		fatal(err)
	}
	if len(run) == 0 {
		fatal(fmt.Errorf("no benchmark lines on stdin (run `go test -bench=. -benchmem`)"))
	}

	if *out != "" {
		if err := writeLedger(*out, run); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "pcmapbench: wrote %d results to %s\n", len(run), *out)
		return
	}
	if err := checkLedger(*check, run); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "pcmapbench: %d benchmarks within allocation budget\n", len(run))
}

// parse extracts benchmark result lines from `go test -bench` output.
// A line looks like
//
//	BenchmarkEngine-8   123456   9.15 ns/op   0 B/op   0 allocs/op
//
// possibly with extra ReportMetric columns, which are ignored. The
// -8 GOMAXPROCS suffix is stripped so ledgers compare across machines.
func parse(sc *bufio.Scanner) (map[string]Result, error) {
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	run := make(map[string]Result)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		var r Result
		seen := false
		// Columns after the iteration count come in (value, unit) pairs.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("line %q: bad value %q", sc.Text(), fields[i])
			}
			switch fields[i+1] {
			case "ns/op":
				r.NsPerOp, seen = v, true
			case "B/op":
				r.BytesPerOp = int64(v)
			case "allocs/op":
				r.AllocsPerOp = int64(v)
			}
		}
		if seen {
			run[name] = r
		}
	}
	return run, sc.Err()
}

// readLedger loads a ledger file.
func readLedger(path string) (Ledger, error) {
	var led Ledger
	data, err := os.ReadFile(path)
	if err != nil {
		return led, err
	}
	if err := json.Unmarshal(data, &led); err != nil {
		return led, fmt.Errorf("%s: %w", path, err)
	}
	return led, nil
}

// writeLedger replaces the ledger's current section with run.
func writeLedger(path string, run map[string]Result) error {
	// encoding/json sorts map keys, so the committed file diffs cleanly.
	data, err := json.MarshalIndent(Ledger{Current: run}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// checkLedger fails when the fresh run allocates materially more per op
// than the committed current numbers. A ledger value of exactly 0 is
// strict for both allocs/op and B/op: allocation-free is a contract
// (engine hot loop, disabled tracer), and the first allocation on such
// a path is the regression, so no slack applies. Other values get a
// fixed slack:
//
//   - allocs/op: 10% + 1. End-to-end counts are in the thousands and
//     vary by a few percent with pool reuse; one reintroduced boxing
//     on a small count still fails.
//   - B/op: 50% + 16 bytes. B/op amortizes table and tracker growth
//     over b.N, so it moves with the benchtime and the machine's speed:
//     BenchmarkControllerRequests grows a line table as it touches new
//     lines and read 382–509 B/op over b.N from 30K to 420K, a
//     sawtooth the 50% covers; BenchmarkControllerVerify read 2–5 B/op
//     at 200ms, which the 16 bytes cover. Record the ledger at the
//     benchtime CI checks (scripts/bench.sh's default), or a growth
//     that amortizes to 0 B/op over a longer run becomes a strict 0.
func checkLedger(path string, run map[string]Result) error {
	led, err := readLedger(path)
	if err != nil {
		return err
	}
	var failures []string
	for _, name := range sortedKeys(run) {
		want, ok := led.Current[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "pcmapbench: %s not in ledger; run `make bench` to record it\n", name)
			continue
		}
		got := run[name]
		if limit := slack(want.AllocsPerOp, 10, 1); got.AllocsPerOp > limit {
			failures = append(failures,
				fmt.Sprintf("%s: %d allocs/op, ledger %d (limit %d)", name, got.AllocsPerOp, want.AllocsPerOp, limit))
		}
		if limit := slack(want.BytesPerOp, 2, 16); got.BytesPerOp > limit {
			failures = append(failures,
				fmt.Sprintf("%s: %d B/op, ledger %d (limit %d)", name, got.BytesPerOp, want.BytesPerOp, limit))
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("allocation regressions:\n  %s", strings.Join(failures, "\n  "))
	}
	return nil
}

// slack is the most a run may record against a ledger value of want:
// want + want/div + add, or exactly 0 when want is 0.
func slack(want, div, add int64) int64 {
	if want == 0 {
		return 0
	}
	return want + want/div + add
}

func sortedKeys(m map[string]Result) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pcmapbench:", err)
	os.Exit(1)
}
