package checks_test

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"pcmap/internal/analysis"
	"pcmap/internal/analysis/analysistest"
	"pcmap/internal/analysis/checks"
)

func TestUnitSafe(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), checks.UnitSafe, "unitsafe")
}

// TestUnitSafeDefiningPackagesExempt checks that the fixture sim and
// mem packages — which contain the blessed raw conversions — produce no
// findings.
func TestUnitSafeDefiningPackagesExempt(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), checks.UnitSafe, "sim", "mem")
}

func TestNoDeterminism(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), checks.NoDeterminism, "nodeterminism")
}

// TestNoDeterminismSimCore checks the sim-core ban: the fixture core
// (and its external test package) may neither read nor pace against the
// host clock.
func TestNoDeterminismSimCore(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), checks.NoDeterminism, "core")
}

// TestNoDeterminismPacingScope checks that pacing is allowed outside the
// sim-core set while clock reads are not: svc sleeps freely.
func TestNoDeterminismPacingScope(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), checks.NoDeterminism, "svc")
}

// TestSuiteReportsEachViolationOnce runs the whole suite over the
// sim-core fixture: each wall-clock read, pacing call and math/rand
// import is one finding, not one per analyzer that knows the rule.
func TestSuiteReportsEachViolationOnce(t *testing.T) {
	pkgs, err := analysis.Load(filepath.Join(analysistest.TestData(t), "src"), "./core")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, pkg := range pkgs {
		diags, err := analysis.Run(pkg, checks.All)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range diags {
			got = append(got, fmt.Sprintf("%s:%d %s", filepath.Base(d.Pos.Filename), d.Pos.Line, d.Analyzer))
		}
	}
	want := []string{
		"c.go:6 nodeterminism",  // import "math/rand"
		"c.go:11 nodeterminism", // time.Sleep
		"c.go:12 nodeterminism", // time.After
		"c.go:13 nodeterminism", // time.Now
		"x_test.go:7 nodeterminism",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got findings\n\t%s\nwant\n\t%s", strings.Join(got, "\n\t"), strings.Join(want, "\n\t"))
	}
}

func TestMetricsComplete(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), checks.MetricsComplete, "metricscomplete", "metricsnomethods")
}

func TestTypedErr(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), checks.TypedErr, "typederr")
}

// TestFloatCmp checks the analyzer inside its scope (energy, with its
// in-package test file) and its silence outside it (energy's external
// test package, and outside).
func TestFloatCmp(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), checks.FloatCmp, "energy", "outside")
}

func TestMetricsAtomic(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), checks.MetricsComplete, "metricsatomic")
}

// TestTypedErrFix applies typederr's suggested fixes to a scratch copy
// of the typederrfix fixture (in a fixture module of its own), compares the result with the .golden
// files, and re-runs the analyzer on the fixed source to confirm the
// findings are gone.
func TestTypedErrFix(t *testing.T) {
	orig := filepath.Join(analysistest.TestData(t), "src", "typederrfix")
	scratch := filepath.Join(t.TempDir(), "src", "typederrfix")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(orig)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(orig, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(scratch, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	srcRoot := filepath.Dir(scratch)
	if err := os.WriteFile(filepath.Join(srcRoot, "go.mod"), []byte("module fixture\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	pkgs, err := analysis.Load(srcRoot, "./typederrfix")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := analysis.Run(pkgs[0], []*analysis.Analyzer{checks.TypedErr})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 3 {
		t.Fatalf("got %d diagnostics before fixing, want 3:\n%s", len(diags), analysistest.Fprint(diags))
	}
	for _, d := range diags {
		if len(d.Fixes) == 0 {
			t.Errorf("diagnostic %s carries no suggested fix", d)
		}
	}

	changed, skipped, err := analysis.ApplyFixes(diags)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 {
		t.Errorf("ApplyFixes skipped %d overlapping edits, want 0", skipped)
	}
	if len(changed) != 2 {
		t.Errorf("ApplyFixes changed %d files, want 2: %v", len(changed), changed)
	}

	for _, name := range []string{"f.go", "g.go"} {
		got, err := os.ReadFile(filepath.Join(scratch, name))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join(orig, name+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("%s after fixing does not match %s.golden:\n--- got ---\n%s\n--- want ---\n%s", name, name, got, want)
		}
	}

	// The fixed source must be clean: the point of a mechanical fix is
	// that applying it resolves the finding.
	fixedPkgs, err := analysis.Load(srcRoot, "./typederrfix")
	if err != nil {
		t.Fatalf("fixed source does not load: %v", err)
	}
	fixedDiags, err := analysis.Run(fixedPkgs[0], []*analysis.Analyzer{checks.TypedErr})
	if err != nil {
		t.Fatal(err)
	}
	if len(fixedDiags) != 0 {
		t.Errorf("fixed source still has %d diagnostics:\n%s", len(fixedDiags), analysistest.Fprint(fixedDiags))
	}
}
