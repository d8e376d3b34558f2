// Command pcmaptrace records, inspects, and replays PCM-level memory
// request traces, and validates timeline traces.
//
//	pcmaptrace gen -workload canneal -instr 200000 -out canneal.trc
//	pcmaptrace info -in canneal.trc
//	pcmaptrace replay -in canneal.trc -variant RWoW-RDE
//	pcmaptrace validate -in out.json
//
// Traces decouple workload generation from controller evaluation: the
// same request stream can be replayed open-loop against every system
// variant. The validate subcommand checks a Chrome trace_event JSON
// timeline written by `pcmapsim -trace` (exit 0 iff well-formed).
package main

import (
	"flag"
	"fmt"
	"math/bits"
	"os"

	"pcmap/internal/cli"
	"pcmap/internal/config"
	"pcmap/internal/core"
	"pcmap/internal/mem"
	"pcmap/internal/obs"
	"pcmap/internal/sim"
	"pcmap/internal/system"
	"pcmap/internal/trace"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "gen":
		err = cmdGen(os.Args[2:])
	case "info":
		err = cmdInfo(os.Args[2:])
	case "replay":
		err = cmdReplay(os.Args[2:])
	case "validate":
		err = cmdValidate(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pcmaptrace:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: pcmaptrace {gen|info|replay|validate} [flags]")
	os.Exit(2)
}

func validateFlags() (*flag.FlagSet, *string) {
	fs := flag.NewFlagSet("validate", flag.ExitOnError)
	return fs, cli.In(fs, "trace.json", "timeline trace (Chrome trace_event JSON written by pcmapsim -trace)")
}

func cmdValidate(args []string) error {
	fs, in := validateFlags()
	fs.Parse(args)

	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := obs.Validate(f); err != nil {
		return fmt.Errorf("%s: %w", *in, err)
	}
	fmt.Printf("%s: valid trace_event JSON\n", *in)
	return nil
}

// genFlags, infoFlags, and replayFlags build each subcommand's flag
// set through the shared vocabulary in internal/cli; TestFlagSurface
// pins the resulting surfaces.
type genOpts struct {
	workload *string
	instr    *uint64
	out      *string
	seed     *uint64
}

func genFlags() (*flag.FlagSet, genOpts) {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	return fs, genOpts{
		workload: cli.Workload(fs, "canneal"),
		instr:    fs.Uint64("instr", 200_000, "instructions per core to simulate"),
		out:      cli.Out(fs, "trace.trc", "output trace file"),
		seed:     cli.Seed(fs, 1),
	}
}

func infoFlags() (*flag.FlagSet, *string) {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	return fs, cli.In(fs, "trace.trc", "trace file to inspect")
}

type replayOpts struct {
	in      *string
	variant *string
}

func replayFlags() (*flag.FlagSet, replayOpts) {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	return fs, replayOpts{
		in:      cli.In(fs, "trace.trc", "trace file to replay"),
		variant: cli.Variant(fs, "RWoW-RDE"),
	}
}

func cmdGen(args []string) error {
	fs, o := genFlags()
	fs.Parse(args)
	workload, instr, out, seed := o.workload, o.instr, o.out, o.seed

	cfg := config.Default()
	cfg.Seed = *seed
	s, err := system.New(system.WithConfig(cfg), system.WithWorkload(*workload))
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	w := trace.NewWriter(f)
	trace.Attach(s.Mem, w)
	if _, err := s.Run(0, *instr); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Printf("wrote %d requests to %s\n", w.Count(), *out)
	return nil
}

func cmdInfo(args []string) error {
	fs, in := infoFlags()
	fs.Parse(args)

	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()
	recs, err := trace.NewReader(f).ReadAll()
	if err != nil {
		return err
	}
	if len(recs) == 0 {
		fmt.Println("empty trace")
		return nil
	}
	var reads, writes, silent uint64
	var dirty [9]uint64
	chans := map[int]uint64{}
	for _, r := range recs {
		if r.Kind == mem.Read {
			reads++
		} else {
			writes++
			k := bits.OnesCount8(r.Mask)
			dirty[k]++
			if k == 0 {
				silent++
			}
		}
		chans[int(r.Addr>>6)&3]++
	}
	span := recs[len(recs)-1].At - recs[0].At
	fmt.Printf("requests     %d (%d reads, %d writes, %d silent writes)\n", len(recs), reads, writes, silent)
	fmt.Printf("span         %.1f us\n", span.Nanoseconds()/1000)
	if span > 0 {
		fmt.Printf("rate         %.2f req/us\n", float64(len(recs))/(span.Nanoseconds()/1000))
	}
	fmt.Printf("channels     %v\n", chans)
	fmt.Printf("dirty words  ")
	for k, n := range dirty {
		if writes > 0 {
			fmt.Printf("%d:%.1f%% ", k, 100*float64(n)/float64(writes))
		}
	}
	fmt.Println()
	return nil
}

func cmdReplay(args []string) error {
	fs, o := replayFlags()
	fs.Parse(args)
	in, variantName := o.in, o.variant

	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()
	recs, err := trace.NewReader(f).ReadAll()
	if err != nil {
		return err
	}
	variant, err := config.ParseVariant(*variantName)
	if err != nil {
		return err
	}

	cfg := config.Default().WithVariant(variant)
	eng := sim.NewEngine()
	m, err := core.NewMemory(eng, cfg)
	if err != nil {
		return err
	}
	st := trace.Replay(eng, m, recs)
	eng.Run()
	met := m.Metrics()
	irlp, irlpMax := m.IRLP()
	fmt.Printf("variant           %s\n", variant)
	fmt.Printf("replayed          %d requests (%d deferred on full queues)\n", st.Submitted, st.Deferred)
	fmt.Printf("makespan          %.1f us\n", eng.Now().Nanoseconds()/1000)
	fmt.Printf("read latency      %.1f ns mean, %.1f ns p95\n",
		met.ReadLatency.MeanNS(), met.ReadLatency.PercentileNS(95))
	fmt.Printf("write latency     %.1f ns mean\n", met.WriteLatency.MeanNS())
	fmt.Printf("write throughput  %.2f writes/us\n", met.WriteThroughput())
	fmt.Printf("IRLP              %.2f avg, %d max\n", irlp, irlpMax)
	fmt.Printf("RoW served        %d\n", met.RoWServed.Value())
	fmt.Printf("WoW overlapped    %d\n", met.WoWOverlapped.Value())
	return nil
}
