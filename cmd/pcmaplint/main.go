// Command pcmaplint runs the project's static-analysis suite: the
// custom analyzers in internal/analysis/checks (determinism, unit
// safety, metrics lifecycle, typed errors, float comparisons, lock
// discipline, goroutine lifecycle, channel ownership) plus `go vet`. It
// exits non-zero when any check reports a finding, so CI and `make lint`
// can gate on it. Each analyzer decides its own package scope.
//
// Usage:
//
//	pcmaplint [-vet=false] [-dir DIR] [-fix] [-json] [-summary] [packages...]
//
// Packages default to ./... . Findings print as
//
//	file:line:col: message (analyzer)
//
// With -json, findings are emitted to stdout as a JSON array instead
// (one object per finding: file, line, col, analyzer, message, and any
// suggested fixes), for CI artifacts and tooling; vet output is routed
// to stderr so stdout stays parseable. With -fix, suggested fixes are
// applied to the files in place and the findings they resolve are not
// counted as failures. With -summary, a per-analyzer finding count is
// printed to stderr after the run.
//
// A finding can be suppressed with a same-line or preceding-line
// comment
//
//	//pcmaplint:ignore analyzer1,analyzer2 reason for the exception
//
// The reason is mandatory; reasonless directives are themselves
// findings. See DESIGN.md ("Simulator invariants" and "Concurrency
// invariants") for what each analyzer enforces and why.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"

	"pcmap/internal/analysis"
	"pcmap/internal/analysis/checks"
)

// defineFlags builds the flag surface (pinned by TestFlagSurface).
func defineFlags(fs *flag.FlagSet) (vet *bool, dir *string, fix, jsonOut, summary *bool) {
	return fs.Bool("vet", true, "also run `go vet` over the same packages"),
		fs.String("dir", ".", "module directory to analyze"),
		fs.Bool("fix", false, "apply suggested fixes to the files in place"),
		fs.Bool("json", false, "emit findings as a JSON array on stdout"),
		fs.Bool("summary", false, "print per-analyzer finding counts to stderr")
}

// jsonFinding is the -json output schema, one object per finding.
type jsonFinding struct {
	File     string                  `json:"file"`
	Line     int                     `json:"line"`
	Col      int                     `json:"col"`
	Analyzer string                  `json:"analyzer"`
	Message  string                  `json:"message"`
	Fixes    []analysis.SuggestedFix `json:"fixes,omitempty"`
}

func main() {
	vet, dir, fix, jsonOut, summary := defineFlags(flag.CommandLine)
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	vetFailed := false
	if *vet {
		cmd := exec.Command("go", append([]string{"vet"}, patterns...)...)
		cmd.Dir = *dir
		cmd.Stdout = os.Stdout
		if *jsonOut {
			cmd.Stdout = os.Stderr // keep stdout pure JSON
		}
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			vetFailed = true
		}
	}

	pkgs, err := analysis.Load(*dir, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pcmaplint:", err)
		os.Exit(2)
	}
	var all []analysis.Diagnostic
	for _, pkg := range pkgs {
		diags, err := analysis.Run(pkg, checks.All)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pcmaplint:", err)
			os.Exit(2)
		}
		all = append(all, diags...)
	}

	cwd, _ := os.Getwd()
	rel := func(name string) string {
		if r, err := filepath.Rel(cwd, name); err == nil && !filepath.IsAbs(r) {
			return r
		}
		return name
	}

	if *fix {
		changed, skipped, err := analysis.ApplyFixes(all)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pcmaplint:", err)
			os.Exit(2)
		}
		for _, f := range changed {
			fmt.Fprintf(os.Stderr, "pcmaplint: fixed %s\n", rel(f))
		}
		if skipped > 0 {
			fmt.Fprintf(os.Stderr, "pcmaplint: %d overlapping edits skipped; re-run -fix\n", skipped)
		}
		// A finding whose fix was just applied is resolved, not a failure.
		rest := all[:0]
		for _, d := range all {
			if len(d.Fixes) == 0 {
				rest = append(rest, d)
			}
		}
		all = rest
	}

	for i := range all {
		all[i].Pos.Filename = rel(all[i].Pos.Filename)
	}

	if *jsonOut {
		findings := make([]jsonFinding, 0, len(all))
		for _, d := range all {
			findings = append(findings, jsonFinding{
				File:     d.Pos.Filename,
				Line:     d.Pos.Line,
				Col:      d.Pos.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
				Fixes:    d.Fixes,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintln(os.Stderr, "pcmaplint:", err)
			os.Exit(2)
		}
	} else {
		for _, d := range all {
			fmt.Println(d)
		}
	}

	if *summary {
		counts := map[string]int{}
		for _, d := range all {
			counts[d.Analyzer]++
		}
		line := "pcmaplint:"
		for _, a := range checks.All {
			line += fmt.Sprintf(" %s=%d", a.Name, counts[a.Name])
		}
		line += fmt.Sprintf(" findings=%d (%d packages)", len(all), len(pkgs))
		if *vet {
			if vetFailed {
				line += "; go vet failed"
			} else {
				line += "; go vet ok"
			}
		}
		fmt.Fprintln(os.Stderr, line)
	}

	if len(all) > 0 || vetFailed {
		os.Exit(1)
	}
}
