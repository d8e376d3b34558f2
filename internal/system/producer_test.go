package system

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"

	"pcmap/internal/config"
	"pcmap/internal/core"
	"pcmap/internal/sim"
)

// producerGoroutines counts live goroutines started by
// workloads.Produce.
func producerGoroutines() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Count(string(buf[:n]), "pcmap/internal/workloads.Produce.func")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// requireNoProducer fails unless every producer goroutine has exited.
// Stop joins the goroutine, which may still be returning from its last
// frame when RunCtx does, so the check yields the CPU a bounded number
// of times first.
func requireNoProducer(t *testing.T) {
	t.Helper()
	for i := 0; i < 10_000 && producerGoroutines() > 0; i++ {
		runtime.Gosched()
	}
	if n := producerGoroutines(); n > 0 {
		t.Fatalf("%d producer goroutines outlived RunCtx", n)
	}
}

// TestNoProducerOutlivesRun: RunCtx joins its op producer whether the
// run succeeds, wedges, or is cancelled.
func TestNoProducerOutlivesRun(t *testing.T) {
	newSys := func(t *testing.T) *System {
		t.Helper()
		s, err := New(WithConfig(config.Default().WithVariant(config.RWoWRDE)), WithWorkload("canneal"))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Release)
		return s
	}
	requireNoProducer(t)

	t.Run("success", func(t *testing.T) {
		if _, err := newSys(t).Run(2_000, 10_000); err != nil {
			t.Fatal(err)
		}
		requireNoProducer(t)
	})

	t.Run("wedge", func(t *testing.T) {
		s := newSys(t)
		// Memory on an engine nobody runs: fetches and write-backs are
		// accepted but never complete, so the cores wait forever and
		// the run's engine drains with work outstanding.
		dead, err := core.NewMemory(sim.NewEngine(), s.Cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.Hier.Mem = dead
		_, err = s.Run(2_000, 10_000)
		if err == nil || !strings.Contains(err.Error(), "wedged") {
			t.Fatalf("got %v, want a wedge error", err)
		}
		requireNoProducer(t)
	})

	t.Run("cancelled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_, err := newSys(t).RunCtx(ctx, 50_000, 10_000)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("got %v, want context.Canceled", err)
		}
		requireNoProducer(t)
	})
}
