// The serve subcommand: pcmapsim as a long-running simulation service.
//
//	pcmapsim serve -addr 127.0.0.1:8080 -cache results/
//
// POST /v1/jobs takes a JSON job spec and answers with the Results
// JSON a one-shot run of the same spec would produce (byte-identical
// to the encoding in internal/system). GET /healthz, /readyz, and
// /metrics expose liveness, drain state, and service counters. See
// internal/serve for the robustness contract (admission control,
// per-job deadlines, panic isolation, graceful drain).
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pcmap/internal/cli"
	"pcmap/internal/exp"
	"pcmap/internal/serve"
)

// serveFlags is the serve subcommand's flag surface, pinned by
// TestServeFlagSurface.
type serveFlags struct {
	addr       *string
	workers    *int
	queue      *int
	warmup     *uint64
	measure    *uint64
	maxBudget  *uint64
	timeout    *time.Duration
	maxTimeout *time.Duration
	drain      *time.Duration
	cacheDir   *string
	verbose    *bool
}

func defineServeFlags(fs *flag.FlagSet) *serveFlags {
	return &serveFlags{
		addr:       fs.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port)"),
		workers:    fs.Int("workers", 0, "jobs simulating at once (0 = NumCPU)"),
		queue:      fs.Int("queue", 0, "accepted jobs that may wait for a running slot; past it a job answers 429 (0 = 2x workers)"),
		warmup:     fs.Uint64("warmup", 0, "default warmup instructions per core for jobs that set none (0 = 40k)"),
		measure:    fs.Uint64("measure", 0, "default measured instructions per core for jobs that set none (0 = 400k)"),
		maxBudget:  fs.Uint64("maxbudget", 0, "reject jobs asking for more warmup or measure instructions than this (0 = 5M)"),
		timeout:    cli.Timeout(fs, 0),
		maxTimeout: fs.Duration("maxtimeout", 0, "cap on client-requested per-job deadlines (0 = 5m)"),
		drain:      fs.Duration("drain", 30*time.Second, "on SIGTERM/SIGINT, wait this long for in-flight jobs before exiting"),
		cacheDir:   fs.String("cache", "", "persist and serve completed runs from this result-cache directory"),
		verbose:    fs.Bool("v", false, "log signals, drains and listener failures to stderr"),
	}
}

// cmdServe runs the service until a signal drains it. It does not
// return on success: serve.Main's exit code becomes the process's.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("pcmapsim serve", flag.ExitOnError)
	f := defineServeFlags(fs)
	fs.Parse(args)
	if fs.NArg() > 0 {
		return fmt.Errorf("serve: unexpected arguments %q", fs.Args())
	}
	if *f.drain <= 0 {
		return fmt.Errorf("serve: invalid -drain %s (need a positive drain deadline)", *f.drain)
	}

	cfg := serve.Config{
		Workers:        *f.workers,
		QueueDepth:     *f.queue,
		DefaultWarmup:  *f.warmup,
		DefaultMeasure: *f.measure,
		MaxBudget:      *f.maxBudget,
		DefaultTimeout: *f.timeout,
		MaxTimeout:     *f.maxTimeout,
	}
	if *f.cacheDir != "" {
		cache, err := exp.NewDiskCache(*f.cacheDir)
		if err != nil {
			return err
		}
		cfg.Cache = cache
	}
	// Operational logging goes to stderr; the "serving on" line always
	// prints so scripts can discover the bound port under -addr :0.
	logger := log.New(os.Stderr, "pcmapsim serve: ", 0)
	if *f.verbose {
		cfg.Logf = logger.Printf
	}

	s := serve.New(cfg)
	ln, err := net.Listen("tcp", *f.addr)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	logger.Printf("serving on %s", ln.Addr())

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	os.Exit(s.Main(ln, sig, *f.drain))
	return nil // unreachable
}
