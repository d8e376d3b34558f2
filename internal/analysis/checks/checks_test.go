package checks_test

import (
	"testing"

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

func TestMetricsComplete(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), checks.MetricsComplete, "metricscomplete", "metricsnomethods")
}

func TestTypedErr(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), checks.TypedErr, "typederr")
}

func TestFloatCmp(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), checks.FloatCmp, "floatcmp")
}
