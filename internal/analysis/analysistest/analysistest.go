// Package analysistest runs an analyzer over fixture packages and
// checks its diagnostics against expectations written in the fixture
// source, mirroring golang.org/x/tools/go/analysis/analysistest with
// only the standard library.
//
// An expectation is a comment of the form
//
//	// want "regexp"
//	// want "regexp1" "regexp2"
//
// on the line the diagnostic is reported at. Every diagnostic must
// match a want on its line, and every want must be matched by a
// diagnostic, or the test fails.
package analysistest

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"pcmap/internal/analysis"
)

// TestData returns the test data directory for the caller's package:
// ./testdata, resolved to an absolute path.
func TestData(t *testing.T) string {
	t.Helper()
	abs, err := filepath.Abs("testdata")
	if err != nil {
		t.Fatal(err)
	}
	return abs
}

// Run loads the fixture packages (directories under dir/src, the root
// of a module named fixture) through analysis.Load and applies the
// analyzer to each, external test packages included, comparing
// diagnostics with the // want comments in the fixture source.
func Run(t *testing.T, dir string, a *analysis.Analyzer, pkgPaths ...string) {
	t.Helper()
	patterns := make([]string, len(pkgPaths))
	for i, p := range pkgPaths {
		patterns[i] = "./" + p
	}
	pkgs, err := analysis.Load(filepath.Join(dir, "src"), patterns...)
	if err != nil {
		t.Fatalf("loading fixtures %v: %v", pkgPaths, err)
	}
	for _, pkg := range pkgs {
		diags, err := analysis.Run(pkg, []*analysis.Analyzer{a})
		if err != nil {
			t.Errorf("running %s on %s: %v", a.Name, pkg.PkgPath, err)
			continue
		}
		checkExpectations(t, pkg, diags)
	}
}

// wantKey identifies one expectation site.
type wantKey struct {
	file string
	line int
}

type want struct {
	re      *regexp.Regexp
	raw     string
	matched bool
}

var wantRE = regexp.MustCompile(`//\s*want\s+(.*)`)
var wantArgRE = regexp.MustCompile("`([^`]*)`|\"((?:[^\"\\\\]|\\\\.)*)\"")

func checkExpectations(t *testing.T, pkg *analysis.Package, diags []analysis.Diagnostic) {
	t.Helper()
	wants := map[wantKey][]*want{}
	for _, f := range pkg.Syntax {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				key := wantKey{file: pos.Filename, line: pos.Line}
				args := wantArgRE.FindAllStringSubmatch(m[1], -1)
				if len(args) == 0 {
					t.Errorf("%s:%d: malformed want comment: %s", pos.Filename, pos.Line, c.Text)
					continue
				}
				for _, arg := range args {
					pattern := arg[1] // backquoted form
					if pattern == "" && arg[2] != "" {
						pattern = strings.ReplaceAll(arg[2], `\"`, `"`)
					}
					re, err := regexp.Compile(pattern)
					if err != nil {
						t.Errorf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, arg[1], err)
						continue
					}
					wants[key] = append(wants[key], &want{re: re, raw: arg[1]})
				}
			}
		}
	}

	for _, d := range diags {
		key := wantKey{file: d.Pos.Filename, line: d.Pos.Line}
		if !claim(wants[key], d.Message) {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s:%d: no diagnostic matching %q", key.file, key.line, w.raw)
			}
		}
	}
}

// claim marks the first unmatched want whose pattern matches msg.
func claim(ws []*want, msg string) bool {
	for _, w := range ws {
		if !w.matched && w.re.MatchString(msg) {
			w.matched = true
			return true
		}
	}
	return false
}

// Fprint is a debugging helper: it formats diagnostics one per line.
func Fprint(diags []analysis.Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		fmt.Fprintln(&b, d)
	}
	return b.String()
}
