// Package checks holds the pcmaplint analyzers: the simulator's
// determinism and correctness invariants, encoded as static checks.
// See DESIGN.md ("Simulator invariants") for the rationale behind each.
package checks

import (
	"go/types"
	"strings"

	"pcmap/internal/analysis"
)

// All lists every analyzer in the suite, in reporting order.
var All = []*analysis.Analyzer{
	ChanEndpoint,
	FloatCmp,
	GoroutineLife,
	GuardedBy,
	MetricsComplete,
	NoDeterminism,
	TypedErr,
	UnitSafe,
}

// pkgLast returns the final element of an import path ("pcmap/internal/sim"
// -> "sim"). Analyzers match packages by this suffix so that test
// fixtures (fixture/sim, ...) exercise the same code paths as the real
// module packages.
func pkgLast(path string) string {
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}

// namedIn reports whether t is the named type pkg.name, with pkg
// matched as the last element of the defining package's import path.
func namedIn(t types.Type, pkg, name string) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == name && obj.Pkg() != nil && pkgLast(obj.Pkg().Path()) == pkg
}
