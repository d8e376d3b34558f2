package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestPaperVariantsByteIdentical is the API redesign's regression
// anchor: the fault-free stdout of the six paper variants (and the
// Figure 1 sweep) must match the committed golden files byte for byte.
// The goldens were captured from the binary as built before the Variant
// registry, partition scheduler, and content-aware write path landed,
// so any drift here means the redesign changed the paper systems'
// observable behavior. Regenerate only with an explicit simulator
// semantics change: go run ./cmd/pcmapsim <args below> > <file>.
func TestPaperVariantsByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("six small simulations; skipped in -short")
	}
	variants := []string{"Baseline", "RoW-NR", "WoW-NR", "RWoW-NR", "RWoW-RD", "RWoW-RDE"}
	for _, v := range variants {
		v := v
		t.Run(v, func(t *testing.T) {
			t.Parallel()
			compareGolden(t, filepath.Join("testdata", "golden", "adhoc_"+v+".txt"),
				"-exp", "adhoc", "-workload", "MP4", "-variant", v,
				"-warmup", "500", "-measure", "4000")
		})
	}
	t.Run("fig1", func(t *testing.T) {
		t.Parallel()
		compareGolden(t, filepath.Join("testdata", "golden", "fig1.csv"),
			"-exp", "fig1", "-warmup", "200", "-measure", "2000", "-format", "csv")
	})
}

// TestAllExperimentsByteIdentical pins every experiment at once: the
// CSV stdout of -exp all and its -json series must match the committed
// goldens byte for byte. At these budgets the reliability sweep injects
// and handles faults, so its rows are not all zero. Regenerate only
// with an explicit simulator semantics change:
// go run ./cmd/pcmapsim <args below> -json all.json > all.csv
func TestAllExperimentsByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("every experiment at small budgets; skipped in -short")
	}
	jsonPath := filepath.Join(t.TempDir(), "all.json")
	compareGolden(t, filepath.Join("testdata", "golden", "all.csv"),
		"-exp", "all", "-warmup", "2000", "-measure", "20000", "-format", "csv",
		"-json", jsonPath)
	want, err := os.ReadFile(filepath.Join("testdata", "golden", "all.json"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("-json series drifted from testdata/golden/all.json\n got:\n%s", got)
	}
}

// compareGolden runs the built binary and byte-compares its stdout
// against the committed golden file (stderr carries wall-clock-
// dependent throughput lines and is ignored).
func compareGolden(t *testing.T, golden string, args ...string) {
	t.Helper()
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr strings.Builder
	cmd := exec.Command(binPath, args...)
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("run failed: %v\nstderr: %s", err, stderr.String())
	}
	if got := stdout.String(); got != string(want) {
		t.Errorf("output drifted from %s\n got:\n%s\nwant:\n%s", golden, got, want)
	}
}
