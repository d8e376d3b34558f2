// Command pcmapreport renders paper-vs-measured comparison tables from
// the JSON written by `pcmapsim -json`. It embeds the paper's published
// reference points for every figure and table so a results file can be
// turned into an EXPERIMENTS.md-style report in one step.
//
//	pcmapsim -exp all -json results.json
//	pcmapreport -in results.json > report.md
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

// paperRef carries the paper's quoted values for headline comparisons.
var paperRef = map[string]string{
	"fig1":     "reads delayed 11.5%-38.1%; normalized latency 1.2x-1.8x",
	"fig2":     "1-word share 14% (omnetpp) to 52% (cactusADM); <4 words for 77-99%",
	"fig8":     "baseline ~2.37 average; RWoW-RDE 4.5 average, 7.4 max",
	"fig9":     ">1.2x on 5/12 workloads; >10% for the majority",
	"fig10":    "RoW-NR -6-14%; RWoW-RDE ~-50% (MT), ~-55% (MP)",
	"fig11":    "RoW-NR 4.5%, WoW-NR 6.1%, RWoW-NR 9.95%, RWoW-RD 13.1%, RWoW-RDE 16.6%",
	"table2":   "Table II RPKI/WPKI per workload",
	"table3":   "RWoW-RDE 16.6%->24.3%; RWoW-NR 11.3%->24.7% (2x->8x)",
	"table4":   "rollbacks up to 5.8%; cost up to 4.6%; never below baseline",
	"headline": "IRLP 2.37->4.5 (max 7.4); IPC +15.6% (MP) / +16.7% (MT)",
}

// defineFlags builds the flag surface (pinned by TestFlagSurface).
func defineFlags(fs *flag.FlagSet) (in *string) {
	return cli.In(fs, "results.json", "JSON file written by pcmapsim -json")
}

func main() {
	in := defineFlags(flag.CommandLine)
	flag.Parse()

	data, err := os.ReadFile(*in)
	if err != nil {
		fatal(err)
	}
	var figs []exp.FigureResult
	if err := json.Unmarshal(data, &figs); err != nil {
		fatal(fmt.Errorf("parsing %s: %w", *in, err))
	}
	fmt.Println("# PCMap reproduction report")
	fmt.Println()
	for _, f := range figs {
		fmt.Printf("## %s\n\n", f.Title)
		if ref, ok := paperRef[f.ID]; ok {
			fmt.Printf("Paper reference: %s\n\n", ref)
		}
		printSeries(f)
		for _, n := range f.Notes {
			fmt.Printf("> %s\n", n)
		}
		fmt.Println()
	}
}

func printSeries(f exp.FigureResult) {
	rows := make([]string, 0, len(f.Series))
	colSet := map[string]bool{}
	for r, cols := range f.Series {
		rows = append(rows, r)
		for c := range cols {
			colSet[c] = true
		}
	}
	sort.Strings(rows)
	cols := make([]string, 0, len(colSet))
	for c := range colSet {
		cols = append(cols, c)
	}
	sort.Strings(cols)

	fmt.Printf("| row | %s |\n", strings.Join(cols, " | "))
	fmt.Printf("|---|%s\n", strings.Repeat("---|", len(cols)))
	for _, r := range rows {
		cells := make([]string, len(cols))
		for i, c := range cols {
			if v, ok := f.Series[r][c]; ok {
				cells[i] = fmt.Sprintf("%.3f", v)
			} else {
				cells[i] = "-"
			}
		}
		fmt.Printf("| %s | %s |\n", r, strings.Join(cells, " | "))
	}
	fmt.Println()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pcmapreport:", err)
	os.Exit(1)
}
