package cpu

import (
	"testing"

	"pcmap/internal/cache"
	"pcmap/internal/config"
	"pcmap/internal/core"
	"pcmap/internal/sim"
	"pcmap/internal/workloads"
)

func buildOne(t *testing.T, profile string, cfg *config.Config) (*sim.Engine, *Core, *cache.Hierarchy) {
	t.Helper()
	eng := sim.NewEngine()
	m, err := core.NewMemory(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := cache.NewHierarchy(eng, cfg, m)
	p := workloads.MustByName(profile)
	gen := workloads.NewGenerator(p, 0, sim.NewRNG(1), nil)
	c := NewCore(eng, cfg, 0, h, workloads.NewFeed(gen), sim.NewRNG(2))
	return eng, c, h
}

func TestCoreReachesBudget(t *testing.T) {
	cfg := config.Default()
	eng, c, _ := buildOne(t, "astar", cfg)
	finished := false
	c.Start(50_000, func() { finished = true })
	eng.Run()
	if !finished || !c.Finished() {
		t.Fatal("core never finished its budget")
	}
	if c.Instructions() < 50_000 {
		t.Fatalf("retired %d instructions, want >= 50000", c.Instructions())
	}
	if c.Loads == 0 || c.Stores == 0 {
		t.Fatalf("no memory activity: loads=%d stores=%d", c.Loads, c.Stores)
	}
}

func TestCoreIPCBounded(t *testing.T) {
	cfg := config.Default()
	eng, c, _ := buildOne(t, "gromacs", cfg)
	c.Start(50_000, nil)
	eng.Run()
	ipc := c.IPC()
	if ipc <= 0 {
		t.Fatalf("IPC %v not positive", ipc)
	}
	// Cannot beat the blend of gap instructions at BaseCPI and memory
	// instructions at one issue slot each.
	p := workloads.MustByName("gromacs")
	gap := (1000 - p.MemOpsPerKI) / p.MemOpsPerKI
	minCPI := (gap*p.BaseCPI + 1/float64(cfg.Core.IssueWidth)) / (gap + 1)
	if ipc > 1/minCPI+0.01 {
		t.Fatalf("IPC %.3f exceeds the %.3f bound", ipc, 1/minCPI)
	}
}

func TestMemoryIntensityLowersIPC(t *testing.T) {
	run := func(profile string) float64 {
		cfg := config.Default()
		eng, c, _ := buildOne(t, profile, cfg)
		c.Start(60_000, nil)
		eng.Run()
		return c.IPC()
	}
	light := run("swaptions") // RPKI 0.4
	heavy := run("canneal")   // RPKI 15.19
	if heavy >= light {
		t.Fatalf("memory-bound canneal IPC %.3f should be below swaptions %.3f", heavy, light)
	}
}

func TestContinueExtendsBudget(t *testing.T) {
	cfg := config.Default()
	eng, c, _ := buildOne(t, "astar", cfg)
	c.Start(10_000, nil)
	eng.Run()
	first := c.Instructions()
	c.Continue(10_000, nil)
	eng.Run()
	if c.Instructions() <= first {
		t.Fatal("Continue did not extend execution")
	}
}

func TestResetWindowIsolatesMeasurement(t *testing.T) {
	cfg := config.Default()
	eng, c, _ := buildOne(t, "astar", cfg)
	c.Start(20_000, nil)
	eng.Run()
	c.ResetWindow()
	if got := c.IPC(); got != 0 {
		t.Fatalf("IPC right after reset should be 0, got %v", got)
	}
	c.Continue(20_000, nil)
	eng.Run()
	if c.IPC() <= 0 {
		t.Fatal("post-reset IPC not measured")
	}
}

func TestFasterMemoryRaisesIPC(t *testing.T) {
	run := func(v config.Variant) float64 {
		cfg := config.Default().WithVariant(v)
		eng := sim.NewEngine()
		m, err := core.NewMemory(eng, cfg)
		if err != nil {
			t.Fatal(err)
		}
		h := cache.NewHierarchy(eng, cfg, m)
		p := workloads.MustByName("canneal")
		var cores []*Core
		for i := 0; i < cfg.Cores; i++ {
			gen := workloads.NewGenerator(p, i, sim.NewRNG(uint64(i+1)), nil)
			cores = append(cores, NewCore(eng, cfg, i, h, workloads.NewFeed(gen), sim.NewRNG(uint64(100+i))))
		}
		for _, c := range cores {
			c.Start(20_000, nil)
		}
		eng.Run()
		var sum float64
		for _, c := range cores {
			sum += c.IPC()
		}
		return sum
	}
	base := run(config.Baseline)
	pcmap := run(config.RWoWRDE)
	if pcmap <= base {
		t.Fatalf("PCMap IPC %.3f should beat baseline %.3f on canneal", pcmap, base)
	}
}

func TestRollbackModelAlwaysFaulty(t *testing.T) {
	cfg := config.Default().WithVariant(config.RWoWRDE)
	cfg.Memory.FaultMode = "always"
	eng, c, _ := buildOne(t, "canneal", cfg)
	c.Start(120_000, nil)
	eng.Run()
	if c.VerifiesSeen == 0 {
		t.Skip("no RoW-served loads in this run")
	}
	if c.FaultyVerifies != c.VerifiesSeen {
		t.Fatalf("always-faulty mode: %d faulty of %d", c.FaultyVerifies, c.VerifiesSeen)
	}
	// Rollbacks happen only for loads committed before the check — a
	// small minority (the paper measures at most 5.8%).
	if c.Rollbacks > c.VerifiesSeen/2 {
		t.Fatalf("implausibly many rollbacks: %d of %d", c.Rollbacks, c.VerifiesSeen)
	}
}

func TestNoVerifiesWithoutRoW(t *testing.T) {
	cfg := config.Default() // baseline
	eng, c, _ := buildOne(t, "canneal", cfg)
	c.Start(60_000, nil)
	eng.Run()
	if c.VerifiesSeen != 0 || c.Rollbacks != 0 {
		t.Fatalf("baseline must not see RoW verifications (%d) or rollbacks (%d)",
			c.VerifiesSeen, c.Rollbacks)
	}
}
