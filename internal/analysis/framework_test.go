package analysis_test

import (
	"go/ast"
	"reflect"
	"strings"
	"testing"

	"pcmap/internal/analysis"
	"pcmap/internal/analysis/analysistest"
)

// frametest flags every function whose name starts with "Bad" — a
// minimal analyzer for exercising the harness itself.
var frametest = &analysis.Analyzer{
	Name: "frametest",
	Doc:  "reports functions named Bad*",
	Run: func(pass *analysis.Pass) error {
		for _, f := range pass.Files {
			for _, decl := range f.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && strings.HasPrefix(fn.Name.Name, "Bad") {
					pass.Reportf(fn.Pos(), "function %s", fn.Name.Name)
				}
			}
		}
		return nil
	},
}

func TestFrameworkWantMatchingAndSuppression(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), frametest, "framework")
}

func TestMalformedIgnoreDirective(t *testing.T) {
	pkgs, err := analysis.Load("testdata/src", "./badreason")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := analysis.Run(pkgs[0], []*analysis.Analyzer{frametest})
	if err != nil {
		t.Fatal(err)
	}
	var malformed int
	var sawBad, sawBadBare, sawSuppressed bool
	for _, d := range diags {
		if strings.Contains(d.Message, "needs analyzer name(s) and a reason") {
			malformed++
		}
		switch d.Message {
		case "function Bad":
			sawBad = true // a reasonless directive must not suppress
		case "function BadBare":
			sawBadBare = true // nor a bare one
		case "function BadSuppressed":
			sawSuppressed = true // a well-formed directive must
		}
	}
	if malformed != 2 || !sawBad || !sawBadBare || sawSuppressed {
		t.Fatalf("want 2 malformed-directive reports, unsuppressed Bad and BadBare, suppressed BadSuppressed; got:\n%s", analysistest.Fprint(diags))
	}
}

// TestLoadModulePackages loads real module packages through the
// go list / export data path, including an in-package test merge and an
// external test package.
func TestLoadModulePackages(t *testing.T) {
	pkgs, err := analysis.Load("../..", "pcmap/internal/sim", "pcmap/internal/energy")
	if err != nil {
		t.Fatal(err)
	}
	byPath := map[string]*analysis.Package{}
	for _, p := range pkgs {
		byPath[p.PkgPath] = p
	}
	sim := byPath["pcmap/internal/sim"]
	if sim == nil {
		t.Fatal("pcmap/internal/sim not loaded")
	}
	if sim.Types.Scope().Lookup("Time") == nil {
		t.Error("sim.Time not in loaded package scope")
	}
	// engine_test.go is an in-package test file; its syntax must be
	// merged into the sim package.
	found := false
	for _, f := range sim.Syntax {
		if strings.HasSuffix(sim.Fset.Position(f.Pos()).Filename, "engine_test.go") {
			found = true
		}
	}
	if !found {
		t.Error("in-package test file engine_test.go not merged into sim package")
	}
	if byPath["pcmap/internal/energy_test"] == nil {
		t.Error("external test package energy_test not loaded")
	}
}

// TestLoadExternalTestSeesExportTest loads a package whose external
// test calls a helper from the package's export_test.go and passes the
// package's type through a dependency that imports it. Both type-check,
// as go test builds them.
func TestLoadExternalTestSeesExportTest(t *testing.T) {
	pkgs, err := analysis.Load("testdata/src", "./exporttest")
	if err != nil {
		t.Fatal(err)
	}
	var paths []string
	for _, p := range pkgs {
		paths = append(paths, p.PkgPath)
	}
	if want := []string{"fixture/exporttest", "fixture/exporttest_test"}; !reflect.DeepEqual(paths, want) {
		t.Fatalf("loaded %v, want %v", paths, want)
	}
	if pkgs[0].Types.Scope().Lookup("CountOf") == nil {
		t.Error("export_test.go's CountOf is not in the package under test")
	}
}
