package analysis_test

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// ignoreBudget pins the number of //pcmaplint:ignore directives in the
// repository (fixtures under testdata excluded). Suppressions are debt:
// each one is a finding the analyzers would report that we have decided
// to live with. Adding one is sometimes right — but it should show up
// in review as this number changing, not slip in silently. Update the
// count when you add or remove a directive, and keep the reason text
// honest.
const ignoreBudget = 7

// TestIgnoreDirectiveAudit walks the repository, checks every ignore
// directive is well-formed (analyzer names and a reason), and compares
// the total against ignoreBudget.
func TestIgnoreDirectiveAudit(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	var sites []string
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == "testdata" || strings.HasPrefix(name, ".") && path != root {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(data), "\n") {
			trimmed := strings.TrimSpace(line)
			if !strings.HasPrefix(trimmed, "//pcmaplint:ignore") {
				continue
			}
			rel, _ := filepath.Rel(root, path)
			site := fmt.Sprintf("%s:%d", rel, i+1)
			sites = append(sites, site)
			// Well-formedness: "//pcmaplint:ignore analyzers reason...".
			// The framework reports reasonless directives at lint time;
			// this assert keeps the contract visible in the test suite
			// too.
			if len(strings.Fields(strings.TrimPrefix(trimmed, "//pcmaplint:ignore"))) < 2 {
				t.Errorf("%s: ignore directive without analyzer names and a reason: %s", site, trimmed)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sites) != ignoreBudget {
		t.Errorf("repository has %d //pcmaplint:ignore directives, budget is %d; "+
			"if the new count is deliberate, update ignoreBudget\n%s",
			len(sites), ignoreBudget, strings.Join(sites, "\n"))
	}
}
