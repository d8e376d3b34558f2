package main

import (
	"bufio"
	"strings"
	"testing"
)

const sampleRun = `goos: linux
goarch: amd64
pkg: pcmap
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkEngine-8           	131123848	         9.147 ns/op	       0 B/op	       0 allocs/op
BenchmarkSECDEDEncode-8     	201632186	         5.951 ns/op	       0 B/op	       0 allocs/op
BenchmarkFig1-8             	       5	 224416018 ns/op	        14.09 %reads-delayed	         1.485 latency-vs-symmetric	42728480 B/op	  321456 allocs/op
BenchmarkControllerRequests 	   444308	      2699 ns/op	      1817 B/op	        12 allocs/op
PASS
ok  	pcmap	12.3s
`

func parseSample(t *testing.T, text string) map[string]Result {
	t.Helper()
	run, err := parse(bufio.NewScanner(strings.NewReader(text)))
	if err != nil {
		t.Fatal(err)
	}
	return run
}

func TestParseStripsSuffixAndExtraMetrics(t *testing.T) {
	run := parseSample(t, sampleRun)
	if len(run) != 4 {
		t.Fatalf("parsed %d results, want 4: %v", len(run), run)
	}
	eng, ok := run["BenchmarkEngine"]
	if !ok {
		t.Fatalf("GOMAXPROCS suffix not stripped: %v", run)
	}
	if eng.NsPerOp != 9.147 || eng.AllocsPerOp != 0 || eng.BytesPerOp != 0 {
		t.Fatalf("BenchmarkEngine = %+v", eng)
	}
	// Fig1 carries two ReportMetric columns between ns/op and B/op;
	// they must be skipped, not mistaken for allocation columns.
	fig1 := run["BenchmarkFig1"]
	if fig1.NsPerOp != 224416018 || fig1.AllocsPerOp != 321456 || fig1.BytesPerOp != 42728480 {
		t.Fatalf("BenchmarkFig1 = %+v", fig1)
	}
	// No -N suffix at all (GOMAXPROCS=1 output) still parses.
	ctl := run["BenchmarkControllerRequests"]
	if ctl.AllocsPerOp != 12 {
		t.Fatalf("BenchmarkControllerRequests = %+v", ctl)
	}
}

func TestParseIgnoresNonBenchmarkLines(t *testing.T) {
	run := parseSample(t, "PASS\nok pcmap 1s\n--- FAIL: TestX\nBenchmarkBroken-8\n")
	if len(run) != 0 {
		t.Fatalf("parsed %d results from noise, want 0: %v", len(run), run)
	}
}

func TestCheckLedger(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/bench.json"
	base := map[string]Result{
		"BenchmarkEngine": {NsPerOp: 9.1, AllocsPerOp: 0},
		"BenchmarkFig1":   {NsPerOp: 2e8, AllocsPerOp: 100_000, BytesPerOp: 2_000_000},
	}
	if err := writeLedger(path, base); err != nil {
		t.Fatal(err)
	}

	// Identical run passes; jitter within the slack passes.
	if err := checkLedger(path, base); err != nil {
		t.Fatalf("identical run: %v", err)
	}
	ok := map[string]Result{
		// allocs limit = 100000 + 10000 + 1; B/op limit = 2e6 + 1e6 + 16.
		"BenchmarkFig1": {AllocsPerOp: 110_001, BytesPerOp: 3_000_016},
	}
	if err := checkLedger(path, ok); err != nil {
		t.Fatalf("within-slack run: %v", err)
	}

	// One past either limit fails.
	for _, bad := range []Result{
		{AllocsPerOp: 110_002, BytesPerOp: 2_000_000},
		{AllocsPerOp: 100_000, BytesPerOp: 3_000_017},
	} {
		if err := checkLedger(path, map[string]Result{"BenchmarkFig1": bad}); err == nil {
			t.Errorf("%+v passed the check against %+v", bad, base["BenchmarkFig1"])
		}
	}

	// A 0 in the ledger is strict: the first allocation, or the first
	// byte, on an allocation-free path fails, with no slack.
	for _, bad := range []Result{{AllocsPerOp: 1}, {BytesPerOp: 1}} {
		if err := checkLedger(path, map[string]Result{"BenchmarkEngine": bad}); err == nil {
			t.Errorf("%+v vs a 0-alloc, 0-B/op ledger passed the check", bad)
		}
	}

	// Unknown benchmarks are reported but not fatal (new benches land
	// before the ledger is regenerated).
	unknown := map[string]Result{"BenchmarkNew": {AllocsPerOp: 5}}
	if err := checkLedger(path, unknown); err != nil {
		t.Fatalf("unknown bench: %v", err)
	}
}

func TestWriteLedgerReplacesCurrent(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/bench.json"
	first := map[string]Result{"BenchmarkEngine": {NsPerOp: 79.98, AllocsPerOp: 2, BytesPerOp: 48}}
	if err := writeLedger(path, first); err != nil {
		t.Fatal(err)
	}
	second := map[string]Result{"BenchmarkEngine": {NsPerOp: 9.1, AllocsPerOp: 0}}
	if err := writeLedger(path, second); err != nil {
		t.Fatal(err)
	}
	data, err := readLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	if data.Current["BenchmarkEngine"].NsPerOp != 9.1 {
		t.Fatalf("current not updated: %+v", data.Current)
	}
}
