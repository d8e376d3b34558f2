// Package cli is the shared flag vocabulary of the pcmap command-line
// tools. A concept that appears in more than one binary — the workload
// mix, the system variant, the simulation seed, a tool's main input or
// output file — must be spelled the same way everywhere, so each such
// flag has exactly one constructor here. Commands define their flags
// through these constructors and pin the resulting surface with a
// TestFlagSurface regression test (see Surface), which turns a rename
// or a drive-by addition into a visible test diff instead of a silent
// interface change.
package cli

import (
	"flag"
	"fmt"
	"sort"
	"strings"
	"time"

	"pcmap/internal/config"
)

// Workload defines the canonical -workload flag selecting the workload
// mix to simulate (Table II names; see internal/workloads).
func Workload(fs *flag.FlagSet, def string) *string {
	return fs.String("workload", def, "workload mix to simulate (e.g. MP4, stream, canneal)")
}

// Variant defines the canonical -variant flag selecting the system
// variant. The help text lists the registry's names, so a newly
// registered variant shows up in every tool's -help without edits.
func Variant(fs *flag.FlagSet, def string) *string {
	return fs.String("variant", def,
		"system variant ("+strings.Join(config.VariantNames(), ", ")+")")
}

// ListVariants defines the canonical -list-variants flag: print the
// variant registry (names and capability sets) and exit.
func ListVariants(fs *flag.FlagSet) *bool {
	return fs.Bool("list-variants", false, "list the registered system variants and exit")
}

// PrintVariants renders the variant registry, one line per variant:
// the canonical -variant name followed by its capability summary.
func PrintVariants() string {
	var b strings.Builder
	for _, v := range config.AllVariants {
		fmt.Fprintf(&b, "%-9s %s\n", v, v.Features().Summary())
	}
	return b.String()
}

// Seed defines the canonical -seed flag overriding the simulation's
// base random seed. Commands that treat 0 as "keep the config default"
// say so in their own documentation.
func Seed(fs *flag.FlagSet, def uint64) *uint64 {
	return fs.Uint64("seed", def, "simulation seed (0 = config default)")
}

// Timeout defines the canonical -timeout flag bounding how long a
// command may run. The value is plumbed as a context deadline: work
// stops cooperatively (simulations halt between engine events) and the
// command reports a timeout error. 0 means no deadline.
func Timeout(fs *flag.FlagSet, def time.Duration) *time.Duration {
	return fs.Duration("timeout", def, "abort after this long, e.g. 30s or 5m (0 = no deadline)")
}

// In defines the canonical -in flag naming a tool's input file. The
// help string states what the file is, since that differs per tool.
func In(fs *flag.FlagSet, def, help string) *string {
	return fs.String("in", def, help)
}

// Out defines the canonical -out flag naming a tool's output file.
func Out(fs *flag.FlagSet, def, help string) *string {
	return fs.String("out", def, help)
}

// Surface returns the sorted names of every flag defined on fs. Flag-
// surface regression tests compare it against a literal list: the list
// in the test is the reviewed interface of the command.
func Surface(fs *flag.FlagSet) []string {
	var names []string
	fs.VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
	sort.Strings(names)
	return names
}
