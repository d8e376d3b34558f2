package checks

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"

	"pcmap/internal/analysis"
)

// WallTime enforces the deterministic-time invariant inside the
// simulation core: packages whose results must be a pure function of
// config and seed may not read, wait on, or derive anything from the
// host clock, and may not draw from the global (unseeded) rand source.
// Simulated time is sim.Time, advanced only by the event engine; the
// only sanctioned randomness is the forkable sim.RNG.
//
// The analyzer applies itself to the sim-core package set (sim, core,
// cpu, pcm, dimm, noc, cache, mem, system) and stays silent elsewhere —
// service and CLI layers are allowed wall-clock, subject to the
// repo-wide nodeterminism rules. It widens nodeterminism's Now/Since/
// Until ban with the pacing functions (Sleep, After, Tick, NewTimer,
// NewTicker, AfterFunc): a sim-core component that sleeps or schedules
// against the host clock would make event order depend on host timing,
// and a seed would no longer determine its run's output.
var WallTime = &analysis.Analyzer{
	Name: "walltime",
	Doc:  "reports wall-clock and global-rand use inside deterministic sim-core packages",
	Run:  runWallTime,
}

// deterministicPkgs is the sim-core set: packages whose code runs under
// simulated time. Matched on the last import-path element so fixtures
// exercise the same path as module packages.
var deterministicPkgs = map[string]bool{
	"sim": true, "core": true, "cpu": true, "pcm": true, "dimm": true,
	"noc": true, "cache": true, "mem": true, "system": true,
}

// wallClockFuncs are the time-package functions banned in sim-core:
// readers of the host clock plus the pacing machinery.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "Tick": true, "NewTimer": true, "NewTicker": true,
	"AfterFunc": true,
}

func runWallTime(pass *analysis.Pass) error {
	pkg := strings.TrimSuffix(pkgLast(pass.Pkg.Path()), "_test")
	if !deterministicPkgs[pkg] {
		return nil
	}
	type use struct {
		pos  ast.Node
		what string
	}
	var uses []use
	for ident, obj := range pass.TypesInfo.Uses {
		fn, ok := obj.(*types.Func)
		if !ok || fn.Pkg() == nil {
			continue
		}
		switch fn.Pkg().Path() {
		case "time":
			if wallClockFuncs[fn.Name()] {
				uses = append(uses, use{ident, "time." + fn.Name() + " ties simulated behavior to the host clock"})
			}
		case "math/rand", "math/rand/v2":
			// Package-level functions draw from the shared global source,
			// which no seed in this repository controls.
			if fn.Type().(*types.Signature).Recv() == nil {
				uses = append(uses, use{ident, "global rand." + fn.Name() + " is unseeded; draw from the forkable sim.RNG"})
			}
		}
	}
	sort.Slice(uses, func(i, j int) bool { return uses[i].pos.Pos() < uses[j].pos.Pos() })
	for _, u := range uses {
		pass.Reportf(u.pos.Pos(), "%s; %s is a deterministic sim-core package (results must be a function of config and seed)", u.what, pkg)
	}
	return nil
}
