package main

import (
	"flag"
	"reflect"
	"strings"
	"testing"

	"pcmap/internal/cli"
)

// TestFlagSurface pins pcmapsim's command-line interface. The literal
// list below is the reviewed surface: adding, renaming, or dropping a
// flag must update it, making interface changes visible in review.
func TestFlagSurface(t *testing.T) {
	fs := flag.NewFlagSet("pcmapsim", flag.ContinueOnError)
	defineFlags(fs)
	want := []string{
		"avgmt", "cache", "cpuprofile", "drift", "endurance", "exp",
		"format", "json", "list-variants", "measure", "memprofile", "par",
		"pausing", "ratio", "resume", "seed", "timeout",
		"trace", "tracesample", "v", "variant", "verify", "warmup", "workload",
	}
	if got := cli.Surface(fs); !reflect.DeepEqual(got, want) {
		t.Errorf("flag surface changed:\n got %v\nwant %v", got, want)
	}
}

// TestServeFlagSurface pins the serve subcommand's interface the same
// way.
func TestServeFlagSurface(t *testing.T) {
	fs := flag.NewFlagSet("pcmapsim serve", flag.ContinueOnError)
	defineServeFlags(fs)
	want := []string{
		"addr", "cache", "drain", "maxbudget", "maxtimeout", "measure",
		"queue", "timeout", "v", "warmup", "workers",
	}
	if got := cli.Surface(fs); !reflect.DeepEqual(got, want) {
		t.Errorf("serve flag surface changed:\n got %v\nwant %v", got, want)
	}
}

// TestExpUsageNamesEveryExperiment: the -exp help text names every
// experiment the flag accepts.
func TestExpUsageNamesEveryExperiment(t *testing.T) {
	fs := flag.NewFlagSet("pcmapsim", flag.ContinueOnError)
	defineFlags(fs)
	usage := fs.Lookup("exp").Usage
	names := strings.FieldsFunc(strings.TrimPrefix(usage, "experiment: "), func(r rune) bool { return r == ',' })
	want := []string{"fig1", "fig2", "fig8", "fig9", "fig10", "fig11", "table2", "table3", "table4",
		"headline", "pausing", "palp", "ablations", "reliability", "all", "adhoc"}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("-exp usage %q names %v, want %v", usage, names, want)
	}
}
