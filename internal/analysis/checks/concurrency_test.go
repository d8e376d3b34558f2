package checks_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pcmap/internal/analysis"
	"pcmap/internal/analysis/analysistest"
	"pcmap/internal/analysis/checks"
)

func TestGuardedBy(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), checks.GuardedBy, "guardedby")
}

func TestGoroutineLife(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), checks.GoroutineLife, "goroutinelife")
}

func TestChanEndpoint(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), checks.ChanEndpoint, "chanendpoint")
}

func TestMetricsAtomic(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), checks.MetricsComplete, "metricsatomic")
}

// TestChanOwnerReasonless drives the reasonless-directive case by hand:
// a // want comment on the directive's line would itself become the
// directive's reason, so analysistest cannot express this fixture.
func TestChanOwnerReasonless(t *testing.T) {
	pkgs, err := analysis.Load(filepath.Join(analysistest.TestData(t), "src"), "./chanownerbad")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := analysis.Run(pkgs[0], []*analysis.Analyzer{checks.ChanEndpoint})
	if err != nil {
		t.Fatal(err)
	}
	wants := []string{
		"pcmaplint:chanowner directive needs a reason",
		"send on ch, which this package never closes",
	}
	if len(diags) != len(wants) {
		t.Fatalf("got %d diagnostics, want %d:\n%s", len(diags), len(wants), analysistest.Fprint(diags))
	}
	for i, w := range wants {
		if !strings.Contains(diags[i].Message, w) {
			t.Errorf("diagnostic %d = %q, want substring %q", i, diags[i].Message, w)
		}
	}
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
