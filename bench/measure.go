package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"syscall"
	"testing"
	"time"
)

// Host time comes from testing.B: the repository's nodeterminism
// analyzer flags every time.Now, and testing.B is a wall clock that
// carries no such read in this package. testing.Init must have run.

// benchmark runs f under testing.Benchmark at the given benchtime.
func benchmark(benchtime string, f func(b *testing.B)) testing.BenchmarkResult {
	if err := flag.Set("test.benchtime", benchtime); err != nil {
		panic(err) // testing.Init not called, or a malformed internal value
	}
	return testing.Benchmark(f)
}

// timed runs fn exactly once and returns the host time it took. lap,
// called inside fn, reads the time since fn started.
func timed(fn func(lap func() time.Duration)) time.Duration {
	var d time.Duration
	benchmark("1x", func(b *testing.B) {
		fn(b.Elapsed)
		d = b.Elapsed()
	})
	return d
}

// median of xs, which must be non-empty.
func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs by the method
// of Python's statistics.quantiles(xs, n=4) (the "exclusive" method),
// so they match what an outside reader computes from the same values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0]
	}
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}

// session measures one workload at one seed: it runs repetitions in
// child processes, one at a time, and checks each against the
// expected digest.
type session struct {
	w     workload
	seed  uint64
	scale float64
	// want is the digest every repetition must produce: the checked-in
	// one for seeds 1 and 7 at scale 1, otherwise the first
	// repetition's.
	want string

	attempted, failed int
}

func newSession(w workload, seed uint64, scale float64, table digestTable) *session {
	s := &session{w: w, seed: seed, scale: scale}
	if scale == 1 {
		s.want = table.lookup(w.name, seed)
	}
	return s
}

func (s *session) childArgs(mode string) []string {
	return []string{"-child", mode, "-workload", s.w.name,
		"-seed", strconv.FormatUint(s.seed, 10), "-scale", strconv.FormatFloat(s.scale, 'g', -1, 64)}
}

// timeout bounds one child process, so a wedged simulation fails
// instead of hanging the run.
func (s *session) timeout() time.Duration {
	return time.Duration(max(1, s.scale) * float64(time.Minute))
}

// rep runs one repetition in a fresh child process and counts its
// simulations. It returns the child's result, the host time the child
// took from start to exit, and whether the repetition passed its checks.
func (s *session) rep(traced bool) (repResult, time.Duration, bool) {
	args := s.childArgs("rep")
	if traced {
		args = append(args, "-traced")
	}
	var r repResult
	var err error
	d := timed(func(func() time.Duration) {
		r.MaxRSSBytes, err = runChild(args, s.timeout(), &r)
	})
	s.attempted += s.w.sims()
	if err == nil {
		err = s.check(r)
	}
	if err != nil {
		s.failed += s.w.sims()
		fmt.Fprintf(os.Stderr, "pcmapbench: %s seed %d: %v\n", s.w.name, s.seed, err)
		return r, d, false
	}
	return r, d, true
}

// check validates one repetition's output.
func (s *session) check(r repResult) error {
	switch {
	case r.Sims != s.w.sims():
		return fmt.Errorf("ran %d simulations, want %d", r.Sims, s.w.sims())
	case r.Instr <= 0 || r.Events == 0 || r.SimS <= 0:
		return errors.New("repetition simulated no work")
	case s.w.endurance > 0 && r.Work["pcm.faults_injected"] == 0:
		return errors.New("the fault model injected no faults")
	case s.want == "":
		s.want = r.Digest
	case r.Digest != s.want:
		return fmt.Errorf("results digest %.12s, want %.12s", r.Digest, s.want)
	}
	return nil
}

// reps runs untraced repetitions until the next one would overrun
// budget, and at least least of them. It stops at the first failure.
// The reference work runs before the first repetition and after each,
// and sets each repetition's Speed.
func (s *session) reps(budget time.Duration, least int) []repResult {
	ref := newRefWork()
	var out []repResult
	before := ref.time()
	spent := before
	for len(out) < least || spent+spent/time.Duration(len(out)) <= budget {
		r, d, ok := s.rep(false)
		if !ok {
			break
		}
		after := ref.time()
		r.Speed = hostSpeed(before, after)
		spent += d + after
		before = after
		out = append(out, r)
	}
	return out
}

// drivers runs the layer drivers in a child process.
func (s *session) drivers(benchtime time.Duration) (map[string]float64, bool) {
	var m map[string]float64
	_, err := runChild(append(s.childArgs("drivers"), "-benchtime", benchtime.String()), s.timeout(), &m)
	s.attempted++
	if err != nil {
		s.failed++
		fmt.Fprintf(os.Stderr, "pcmapbench: %s drivers: %v\n", s.w.name, err)
		return nil, false
	}
	return m, true
}

// runChild runs this executable with args, waits for it to exit,
// decodes its standard output as JSON into out, and returns the
// child's peak resident set size in bytes.
func runChild(args []string, timeout time.Duration, out any) (uint64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return 0, fmt.Errorf("child %v: %w", args, err)
	}
	if err := json.Unmarshal(stdout.Bytes(), out); err != nil {
		return 0, fmt.Errorf("child %v output: %w", args, err)
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0, errors.New("no rusage for child")
	}
	if runtime.GOOS == "darwin" {
		return uint64(ru.Maxrss), nil // bytes
	}
	return uint64(ru.Maxrss) * 1024, nil // KiB
}

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line for one workload.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// minReps is the fewest repetitions an end-to-end run measures, so
// every metric has quartiles.
const minReps = 3

// measure runs workload w at seed for about seconds of host time and
// prints each metric (median and quartiles over repetitions) to out.
// With trace, it measures the per-layer metrics instead.
func measure(w workload, seed uint64, seconds, scale float64, trace bool, table digestTable, out io.Writer) result {
	s := newSession(w, seed, scale, table)
	budget := time.Duration(seconds * float64(time.Second))
	samples := map[string][]float64{}
	add := func(name string, v float64) { samples[name] = append(samples[name], v) }
	defs := endToEnd
	reps := 0
	var speeds []float64

	if !trace {
		for _, r := range s.reps(budget, minReps) {
			// Host times at reference speed; see hostspeed.go.
			add("sim_minstr_per_s", r.Instr/1e6/(r.SimS*r.Speed))
			add("wall_s", r.WallS*r.Speed)
			add("setup_s", r.SetupS*r.Speed)
			speeds = append(speeds, r.Speed)
			add("peak_rss_mb", float64(r.MaxRSSBytes)/1e6)
			add("alloc_mb_per_minstr", float64(r.AllocBytes)/r.Instr)
			reps++
		}
	} else {
		defs = perLayer
		// Half the budget measures untraced repetitions, the base of the
		// work counts and of the tracing overhead; the traced repetition
		// and the drivers share the rest.
		var walls []float64
		for _, r := range s.reps(budget/2, 1) {
			for name, v := range r.Work {
				add(name, v)
			}
			add("sim.host_ns_per_event", r.RunS*1e9/float64(r.Events))
			add("runtime.gc_cycles", float64(r.GCCycles))
			add("runtime.gc_pause_ms", float64(r.GCPauseNS)/1e6)
			add("runtime.mallocs_per_kinstr", float64(r.Mallocs)/(r.Instr/1000))
			add("exp.parallel_efficiency", r.SimWallS/(r.WallS*float64(r.Workers)))
			add("exp.sims", float64(r.Sims))
			add("exp.cache_entries", float64(r.CacheEntries))
			walls = append(walls, r.WallS)
			reps++
		}
		if tr, _, ok := s.rep(true); ok && len(walls) > 0 {
			var cpu int64
			for _, n := range tr.Profile.CPU {
				cpu += n
			}
			for _, b := range buckets {
				add(b+".cpu_share", float64(tr.Profile.CPU[b])/float64(max(cpu, 1)))
				add(b+".alloc_mb_per_minstr", float64(tr.Profile.Alloc[b])/tr.Instr)
			}
			add("trace.overhead_frac", tr.WallS/median(walls)-1)
			reps++
		}
		// Drivers get a hundredth of the budget each: 0.3 s at 30 s.
		if m, ok := s.drivers(budget / 100); ok {
			for name, v := range m {
				add(name, v)
			}
		}
	}

	res := result{Attempted: s.attempted, Failed: s.failed, Metrics: map[string]metricValue{}}
	fmt.Fprintf(out, "%s seed=%d trace=%t scale=%g repetitions=%d attempted=%d failed=%d\n",
		w.name, seed, trace, scale, reps, s.attempted, s.failed)
	complete := true
	for _, d := range defs {
		xs := samples[d.name]
		if len(xs) == 0 {
			complete = false
			continue
		}
		res.Metrics[d.name] = metricValue{median(xs), d.unit}
		printSummary(out, d.name, d.unit, xs)
	}
	if len(speeds) > 0 {
		printSummary(out, "(host speed)", "of reference", speeds)
	}
	res.Correct = complete && s.failed == 0 && s.attempted > 0
	return res
}

// printSummary prints one metric's median, and its quartiles and sample
// count when it has more than one sample.
func printSummary(out io.Writer, name, unit string, xs []float64) {
	v := median(xs)
	if len(xs) == 1 {
		fmt.Fprintf(out, "  %-32s %14.6g %s\n", name, v, unit)
		return
	}
	q1, q3 := quartiles(xs)
	fmt.Fprintf(out, "  %-32s %14.6g %-14s q1 %-12.6g q3 %-12.6g n=%d\n", name, v, unit, q1, q3, len(xs))
}
