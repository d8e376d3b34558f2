// Command pcmapbench is the simulator's host-speed benchmark. It runs
// named workloads against the simulator's public API, each repetition
// in a fresh child process, checks every simulation against a results
// digest, and prints the end-to-end metrics (--trace 0) or the
// per-layer metrics of a profiled pass (--trace 1). The last line of
// standard output is one JSON object per the contract in README.md.
//
//	go run . --workload mt-memory --seed 1 --seconds 20 --trace 0
//	go run . -out change.json ...; go run . -compare parent.json change.json
package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"testing"
	"time"
)

func main() {
	testing.Init()
	os.Exit(run(os.Args[1:], os.Stdout))
}

// options are the parsed command-line flags.
type options struct {
	workload      string
	seed          uint64
	seconds       float64
	trace         int
	scale         float64
	out           string
	compare       bool
	updateDigests bool

	child     string
	traced    bool
	benchtime time.Duration
}

func parseFlags(args []string) (options, []string, error) {
	var o options
	names := make([]string, len(benchWorkloads))
	for i, w := range benchWorkloads {
		names[i] = w.name
	}
	fs := flag.NewFlagSet("pcmapbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "all", "workload to measure: "+strings.Join(names, ", ")+", or all")
	fs.Uint64Var(&o.seed, "seed", 1, "seed the workload inputs are made from (7 is held out for verifying claims)")
	fs.Float64Var(&o.seconds, "seconds", 20, "host seconds to measure each workload for")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: the traced pass and its per-layer metrics")
	fs.Float64Var(&o.scale, "scale", 1, "multiplier on every workload's instruction budgets (digests are checked only at 1)")
	fs.StringVar(&o.out, "out", "", "append each workload's result record to this file, for -compare")
	fs.BoolVar(&o.compare, "compare", false, "compare the records of two -out files: -compare parent.json change.json")
	fs.BoolVar(&o.updateDigests, "update-digests", false, "rerun seeds 1 and 7 at scale 1 and rewrite testdata/digests.json for this GOARCH")
	fs.StringVar(&o.child, "child", "", "internal: run one repetition (rep) or the layer drivers (drivers) in this process")
	fs.BoolVar(&o.traced, "traced", false, "internal: profile the child repetition")
	fs.DurationVar(&o.benchtime, "benchtime", 200*time.Millisecond, "internal: host time per layer driver")
	if err := fs.Parse(args); err != nil {
		return o, nil, err
	}
	switch {
	case o.trace != 0 && o.trace != 1:
		return o, nil, fmt.Errorf("-trace %d: want 0 or 1", o.trace)
	case !(o.scale > 0):
		return o, nil, fmt.Errorf("-scale %g: want a positive multiplier", o.scale)
	case !(o.seconds >= 0):
		return o, nil, fmt.Errorf("-seconds %g: want a non-negative duration", o.seconds)
	case o.compare && fs.NArg() != 2:
		return o, nil, errors.New("-compare takes two files: parent.json change.json")
	case !o.compare && fs.NArg() != 0:
		return o, nil, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	return o, fs.Args(), nil
}

func run(args []string, stdout io.Writer) int {
	o, rest, err := parseFlags(args)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		fmt.Fprintln(os.Stderr, "pcmapbench:", err)
		return 2
	}
	if o.compare {
		return exitCode(compare(rest[0], rest[1], stdout))
	}
	table, err := loadDigests()
	if err != nil {
		return exitCode(err)
	}
	if o.updateDigests {
		return exitCode(updateDigests(table))
	}
	var todo []workload
	if o.workload == "all" && o.child == "" {
		todo = benchWorkloads
	} else if w, ok := workloadByName(o.workload); ok {
		todo = []workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "pcmapbench: unknown workload %q\n", o.workload)
		return 2
	}
	if o.child != "" {
		return exitCode(runChildMode(o, todo[0], stdout))
	}

	fmt.Fprintf(stdout, "host: nproc=%d GOMAXPROCS=%d %s %s/%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	code := 0
	for _, w := range todo {
		res := measure(w, o.seed, o.seconds, o.scale, o.trace == 1, table, stdout)
		line, err := json.Marshal(res)
		if err != nil {
			return exitCode(err)
		}
		fmt.Fprintf(stdout, "%s\n", line)
		if o.out != "" {
			if err := appendRecord(o.out, record{w.name, o.seed, o.trace == 1, res}); err != nil {
				return exitCode(err)
			}
		}
		if !res.Correct {
			code = 1
		}
	}
	return code
}

func exitCode(err error) int {
	if err != nil {
		fmt.Fprintln(os.Stderr, "pcmapbench:", err)
		return 1
	}
	return 0
}

// runChildMode is the child process's side: one repetition, or the
// layer drivers, reported as one JSON object on stdout.
func runChildMode(o options, w workload, stdout io.Writer) error {
	var out any
	switch o.child {
	case "rep":
		r, err := childRep(w, o.seed, o.scale, o.traced)
		if err != nil {
			return err
		}
		out = r
	case "drivers":
		in, err := newDriverInput(w, o.seed)
		if err != nil {
			return err
		}
		m, err := runDrivers(in, o.benchtime.String())
		if err != nil {
			return err
		}
		out = m
	default:
		return fmt.Errorf("unknown -child mode %q", o.child)
	}
	return json.NewEncoder(stdout).Encode(out)
}

// tracedMemProfileRate samples one allocation per 16 KiB in the traced
// repetition, against the runtime's default 512 KiB, so that small
// layers' allocations show up.
const tracedMemProfileRate = 16 << 10

// childRep runs one repetition; traced, it also folds a CPU profile
// and an allocation profile of it into per-layer buckets.
func childRep(w workload, seed uint64, scale float64, traced bool) (repResult, error) {
	if !traced {
		return runRep(w, seed, scale)
	}
	runtime.MemProfileRate = tracedMemProfileRate
	var cpu bytes.Buffer
	if err := pprof.StartCPUProfile(&cpu); err != nil {
		return repResult{}, err
	}
	r, err := runRep(w, seed, scale)
	pprof.StopCPUProfile()
	if err != nil {
		return r, err
	}
	runtime.GC() // the allocation profile is current as of the last GC
	var heap bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&heap, 0); err != nil {
		return r, err
	}
	r.Profile = &layerProfile{}
	if r.Profile.CPU, err = foldProfile(cpu.Bytes(), "samples"); err != nil {
		return r, err
	}
	r.Profile.Alloc, err = foldProfile(heap.Bytes(), "alloc_space")
	return r, err
}

// digestTable maps GOARCH → workload → seed → results digest. Float
// rounding can differ across architectures, so each keeps its own.
type digestTable map[string]map[string]map[string]string

//go:embed testdata/digests.json
var digestsJSON []byte

const digestsPath = "testdata/digests.json"

// digestSeeds are the seeds whose digests are checked in.
var digestSeeds = []uint64{1, 7}

func loadDigests() (digestTable, error) {
	t := digestTable{}
	if err := json.Unmarshal(digestsJSON, &t); err != nil {
		return nil, fmt.Errorf("%s: %w", digestsPath, err)
	}
	return t, nil
}

func (t digestTable) lookup(workload string, seed uint64) string {
	return t[runtime.GOARCH][workload][strconv.FormatUint(seed, 10)]
}

// updateDigests reruns every workload once per digest seed at scale 1
// and rewrites the table's entries for this GOARCH. Run it from the
// bench directory.
func updateDigests(t digestTable) error {
	arch := map[string]map[string]string{}
	for _, w := range benchWorkloads {
		arch[w.name] = map[string]string{}
		for _, seed := range digestSeeds {
			s := newSession(w, seed, 1, nil)
			r, _, ok := s.rep(false)
			if !ok {
				return fmt.Errorf("%s seed %d failed", w.name, seed)
			}
			arch[w.name][strconv.FormatUint(seed, 10)] = r.Digest
		}
	}
	t[runtime.GOARCH] = arch
	b, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(digestsPath, append(b, '\n'), 0o644)
}
