package checks_test

import (
	"fmt"
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
