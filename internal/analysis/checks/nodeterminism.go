package checks

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"

	"pcmap/internal/analysis"
)

// NoDeterminism reports constructs that make a simulation run depend on
// anything other than its configuration and seed:
//
//   - time.Now / time.Since / time.Until — wall-clock values leaking
//     into results;
//   - in the sim-core packages, also the pacing functions time.Sleep,
//     After, Tick, NewTimer, NewTicker and AfterFunc — a component that
//     sleeps or schedules against the host clock makes event order depend
//     on host timing. Service and CLI layers may pace themselves;
//   - importing math/rand or math/rand/v2 — the simulator must draw all
//     randomness from its seeded, forkable sim.RNG so runs replay
//     bit-for-bit (the global rand sources are unseeded and shared);
//   - ranging over a map while writing to an output sink — map
//     iteration order is randomized per run, so any output produced
//     inside such a loop differs between identically-seeded runs.
//     Collect-and-sort loops are fine; only loops whose body prints,
//     writes, or encodes are reported.
var NoDeterminism = &analysis.Analyzer{
	Name: "nodeterminism",
	Doc:  "reports wall-clock reads, sim-core host pacing, unseeded global randomness, and map-ordered output",
	Run:  runNoDeterminism,
}

// clockReads are the time package functions that read the wall clock.
var clockReads = map[string]bool{"Now": true, "Since": true, "Until": true}

// pacingFuncs are the time package functions that wait on or schedule
// against the host clock.
var pacingFuncs = map[string]bool{
	"Sleep": true, "After": true, "Tick": true,
	"NewTimer": true, "NewTicker": true, "AfterFunc": true,
}

// simCorePkgs are the packages whose code runs under simulated time,
// matched on the last import-path element (an external test package
// belongs to the package it tests).
var simCorePkgs = map[string]bool{
	"sim": true, "core": true, "cpu": true, "pcm": true, "dimm": true,
	"noc": true, "cache": true, "mem": true, "system": true,
}

// sinkMethods are method names that commit bytes to an output stream;
// calling one inside a map-range makes the output order depend on map
// iteration order.
var sinkMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"Print": true, "Printf": true, "Println": true,
	"Encode": true, "AddRow": true,
}

func runNoDeterminism(pass *analysis.Pass) error {
	pkg := strings.TrimSuffix(pkgLast(pass.Pkg.Path()), "_test")
	var uses []*ast.Ident
	for ident, obj := range pass.TypesInfo.Uses {
		fn, ok := obj.(*types.Func)
		if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" || fn.Type().(*types.Signature).Recv() != nil {
			continue
		}
		if clockReads[fn.Name()] || simCorePkgs[pkg] && pacingFuncs[fn.Name()] {
			uses = append(uses, ident)
		}
	}
	sort.Slice(uses, func(i, j int) bool { return uses[i].Pos() < uses[j].Pos() })
	for _, id := range uses {
		if clockReads[id.Name] {
			pass.Reportf(id.Pos(), "time.%s reads the wall clock; simulation results must depend only on config and seed", id.Name)
		} else {
			pass.Reportf(id.Pos(), "time.%s paces against the host clock; %s is a deterministic sim-core package (results must be a function of config and seed)", id.Name, pkg)
		}
	}

	for _, f := range pass.Files {
		// Global randomness: the import itself is the violation.
		for _, imp := range f.Imports {
			switch imp.Path.Value {
			case `"math/rand"`, `"math/rand/v2"`:
				pass.Reportf(imp.Pos(), "import %s: use the seeded sim.RNG so runs replay deterministically", imp.Path.Value)
			}
		}

		// Map-ordered output.
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			tv := pass.TypesInfo.Types[rs.X]
			if tv.Type == nil {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return true
			}
			if sink := findOutputSink(pass, rs.Body); sink != nil {
				pass.Reportf(rs.Pos(), "map iteration order is random: sort the keys before producing output (sink: %s)", sinkName(sink))
			}
			return true
		})
	}
	return nil
}

// findOutputSink returns the first call in body that writes to an
// output stream, or nil.
func findOutputSink(pass *analysis.Pass, body *ast.BlockStmt) *ast.SelectorExpr {
	var found *ast.SelectorExpr
	ast.Inspect(body, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		// Package-level printers: fmt.Print*/fmt.Fprint*, anything in log.
		if id, ok := sel.X.(*ast.Ident); ok {
			if pn, ok := pass.TypesInfo.Uses[id].(*types.PkgName); ok {
				path := pn.Imported().Path()
				name := sel.Sel.Name
				if path == "log" ||
					(path == "fmt" && (strings.HasPrefix(name, "Print") || strings.HasPrefix(name, "Fprint"))) {
					found = sel
					return false
				}
				return true // other package funcs (fmt.Sprintf, ...) are pure
			}
		}
		// Writer/encoder methods.
		if sinkMethods[sel.Sel.Name] {
			if s := pass.TypesInfo.Selections[sel]; s != nil && s.Kind() == types.MethodVal {
				found = sel
				return false
			}
		}
		return true
	})
	return found
}

func sinkName(sel *ast.SelectorExpr) string {
	if id, ok := sel.X.(*ast.Ident); ok {
		return id.Name + "." + sel.Sel.Name
	}
	return sel.Sel.Name
}
