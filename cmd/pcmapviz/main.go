// Command pcmapviz renders the JSON written by `pcmapsim -json` as
// ASCII bar charts, one per figure — the terminal equivalent of the
// paper's plots.
//
//	pcmapsim -exp fig8,fig11 -json results.json
//	pcmapviz -in results.json
//	pcmapviz -in results.json -fig fig8
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"pcmap/internal/cli"
	"pcmap/internal/exp"
)

const barWidth = 44

// defineFlags builds the flag surface (pinned by TestFlagSurface).
func defineFlags(fs *flag.FlagSet) (in, only *string) {
	return cli.In(fs, "results.json", "JSON written by pcmapsim -json"),
		fs.String("fig", "", "render only this figure id (e.g. fig8)")
}

func main() {
	in, only := defineFlags(flag.CommandLine)
	flag.Parse()

	data, err := os.ReadFile(*in)
	if err != nil {
		fatal(err)
	}
	var figs []exp.FigureResult
	if err := json.Unmarshal(data, &figs); err != nil {
		fatal(fmt.Errorf("parsing %s: %w", *in, err))
	}
	rendered := 0
	for _, f := range figs {
		if *only != "" && f.ID != *only {
			continue
		}
		render(f)
		rendered++
	}
	if rendered == 0 {
		fatal(fmt.Errorf("no figure %q in %s", *only, *in))
	}
}

func render(f exp.FigureResult) {
	fmt.Printf("━━ %s ━━\n\n", f.Title)
	rows := sortedKeys(f.Series)
	cols := columnSet(f.Series)
	maxVal := 0.0
	for _, r := range rows {
		for _, c := range cols {
			if v, ok := f.Series[r][c]; ok && v > maxVal {
				maxVal = v
			}
		}
	}
	if maxVal == 0 {
		maxVal = 1
	}
	rowW := maxLen(rows)
	colW := maxLen(cols)
	for _, r := range rows {
		fmt.Printf("%-*s\n", rowW, r)
		for _, c := range cols {
			v, ok := f.Series[r][c]
			if !ok {
				continue
			}
			fmt.Printf("  %-*s %s %.3f\n", colW, c, bar(v, maxVal), v)
		}
	}
	for _, n := range f.Notes {
		fmt.Printf("\n  note: %s", n)
	}
	fmt.Println()
	fmt.Println()
}

// bar renders a scaled horizontal bar; negative values grow a '▒' bar
// to mark regressions.
func bar(v, max float64) string {
	neg := v < 0
	if neg {
		v = -v
	}
	n := int(v / max * barWidth)
	if n > barWidth {
		n = barWidth
	}
	ch := "█"
	if neg {
		ch = "▒"
	}
	return strings.Repeat(ch, n)
}

func sortedKeys(m map[string]map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func columnSet(m map[string]map[string]float64) []string {
	seen := map[string]bool{}
	var out []string
	for _, cols := range m {
		for c := range cols {
			if !seen[c] {
				seen[c] = true
				out = append(out, c)
			}
		}
	}
	sort.Strings(out)
	return out
}

func maxLen(xs []string) int {
	n := 0
	for _, x := range xs {
		if len(x) > n {
			n = len(x)
		}
	}
	return n
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pcmapviz:", err)
	os.Exit(1)
}
