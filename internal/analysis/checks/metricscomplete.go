package checks

import (
	"go/ast"
	"go/types"

	"pcmap/internal/analysis"
)

// MetricsComplete guards the most common silent-corruption bug in the
// metrics pipeline: adding a counter field to a Metrics struct and
// forgetting to thread it through aggregation. A forgotten field makes
// multi-channel runs under-report (Merge), leak warmup measurements
// into the measured window (Reset), or vanish from reports (Counters)
// — none of which fails a test on its own.
//
// The Metrics type lists its counters in one private method, counters,
// which returns each stats.Counter field by pointer under its report
// name; Merge, Reset, and Counters all walk that list. The list is the
// single point of truth, so:
//
//   - each stats.Counter field must be referenced in counters (an
//     unlisted counter is invisible to every consumer);
//   - each pointer field whose element type is defined in the stats
//     package (LatencyTracker, Histogram, IRLP, ...) must be referenced
//     in Reset — trackers are not in the counters list;
//   - the Merge, Reset, Counters, and counters methods must exist.
//
// Atomic counter blocks (the serve layer's service counters): a struct
// with two or more atomic.Uint64/Int64/Uint32/Int32 fields is a
// counters block kept apart from Metrics because concurrent HTTP
// handlers touch it. The same forgotten-field bug applies with
// different spelling: every field must have a write site (Add, Store,
// Swap, CompareAndSwap) and a read site (Load) somewhere in the
// package, or it is either never incremented or never exposed.
var MetricsComplete = &analysis.Analyzer{
	Name: "metricscomplete",
	Doc:  "reports Metrics counter fields missing from the counters list and trackers missing from Reset",
	Run:  runMetricsComplete,
}

func runMetricsComplete(pass *analysis.Pass) error {
	checkAtomicCounterBlocks(pass)
	return checkMetricsLifecycle(pass)
}

// atomicCounterTypes are the sync/atomic numeric counters.
var atomicCounterTypes = map[string]bool{
	"Uint64": true, "Int64": true, "Uint32": true, "Int32": true,
}

// checkAtomicCounterBlocks finds structs made of atomic counters and
// requires every field to be both written and read in the package.
func checkAtomicCounterBlocks(pass *analysis.Pass) {
	var blocks [][]*types.Var
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		var counters []*types.Var
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			t := f.Type()
			if n, isNamed := t.(*types.Named); isNamed {
				obj := n.Obj()
				if obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic" && atomicCounterTypes[obj.Name()] {
					counters = append(counters, f)
				}
			}
		}
		if len(counters) >= 2 {
			blocks = append(blocks, counters)
		}
	}
	if len(blocks) == 0 {
		return
	}

	written := map[*types.Var]bool{}
	read := map[*types.Var]bool{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fieldSel, ok := sel.X.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fs := pass.TypesInfo.Selections[fieldSel]
			if fs == nil || fs.Kind() != types.FieldVal {
				return true
			}
			v, ok := fs.Obj().(*types.Var)
			if !ok {
				return true
			}
			switch sel.Sel.Name {
			case "Add", "Store", "Swap", "CompareAndSwap":
				written[v] = true
			case "Load":
				read[v] = true
			}
			return true
		})
	}
	for _, counters := range blocks {
		for _, f := range counters {
			if !written[f] {
				pass.Reportf(f.Pos(), "atomic counter field %s is never written (no Add/Store call in the package)", f.Name())
			}
			if !read[f] {
				pass.Reportf(f.Pos(), "atomic counter field %s is never exposed (no Load call in the package)", f.Name())
			}
		}
	}
}

func checkMetricsLifecycle(pass *analysis.Pass) error {
	obj := pass.Pkg.Scope().Lookup("Metrics")
	tn, ok := obj.(*types.TypeName)
	if !ok {
		return nil
	}
	st, ok := tn.Type().Underlying().(*types.Struct)
	if !ok {
		return nil
	}

	var counters, trackers []*types.Var
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if namedIn(f.Type(), "stats", "Counter") {
			counters = append(counters, f)
			continue
		}
		if ptr, ok := f.Type().(*types.Pointer); ok {
			if n, ok := ptr.Elem().(*types.Named); ok {
				if p := n.Obj().Pkg(); p != nil && pkgLast(p.Path()) == "stats" {
					trackers = append(trackers, f)
				}
			}
		}
	}
	if len(counters) == 0 {
		return nil // not a metrics block in this package's sense
	}

	methods := map[string]*ast.FuncDecl{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || len(fd.Recv.List) != 1 {
				continue
			}
			if recvNamed(pass, fd.Recv.List[0].Type) == tn {
				methods[fd.Name.Name] = fd
			}
		}
	}

	// Fields each method must reference; Merge and Counters walk the
	// counters list, so only their existence is checked.
	required := map[string][]*types.Var{
		"counters": counters,
		"Reset":    trackers,
	}
	for _, name := range []string{"Merge", "Reset", "Counters", "counters"} {
		m := methods[name]
		if m == nil {
			pass.Reportf(tn.Pos(), "Metrics has counter fields but no %s method; the lifecycle is Merge/Reset/Counters over the counters list", name)
			continue
		}
		used := fieldsReferenced(pass, m)
		for _, f := range required[name] {
			if !used[f] {
				pass.Reportf(f.Pos(), "field %s is not handled in (%s).%s", f.Name(), tn.Name(), name)
			}
		}
	}
	return nil
}

// recvNamed resolves a method receiver type expression to its type
// name, unwrapping the pointer if present.
func recvNamed(pass *analysis.Pass, expr ast.Expr) *types.TypeName {
	t := pass.TypesInfo.Types[expr].Type
	if t == nil {
		return nil
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj()
	}
	return nil
}

// fieldsReferenced collects the struct fields selected anywhere in the
// method body.
func fieldsReferenced(pass *analysis.Pass, fd *ast.FuncDecl) map[*types.Var]bool {
	used := map[*types.Var]bool{}
	if fd.Body == nil {
		return used
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		se, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if sel := pass.TypesInfo.Selections[se]; sel != nil {
			if v, ok := sel.Obj().(*types.Var); ok && v.IsField() {
				used[v] = true
			}
		}
		return true
	})
	return used
}
