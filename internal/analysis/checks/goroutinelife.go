package checks

import (
	"go/ast"
	"go/types"
	"strings"

	"pcmap/internal/analysis"
)

// GoroutineLife reports fire-and-forget goroutines in non-test code:
// every `go` statement must be tied to a completion or cancellation
// mechanism visible in the enclosing function, because a goroutine
// nobody joins is a goroutine no one can reason about — it can outlive
// the simulation, the drain, or the test that spawned it.
//
// A `go` statement is accepted when any of these is visible:
//
//   - the goroutine body sends on or closes a channel (a join the
//     spawner can wait on), or calls a Done/Wait method (WaitGroup
//     completion, or selecting on a context's Done channel);
//   - the enclosing function calls Add on a sync.WaitGroup — the
//     spawn-side half of the Add/Done protocol, which covers goroutines
//     whose body is a named method (go s.worker());
//   - the goroutine body is a single call whose arguments include a
//     channel or context.Context — the mechanism travels with the call.
//
// Everything else is reported. Genuine fire-and-forget goroutines
// (there should be almost none) take a reasoned //pcmaplint:ignore.
var GoroutineLife = &analysis.Analyzer{
	Name: "goroutinelife",
	Doc:  "reports go statements with no completion or cancellation mechanism visible in the enclosing function",
	Run:  runGoroutineLife,
}

func runGoroutineLife(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		if isTestFile(pass, f) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			hasAdd := hasWaitGroupAdd(pass, fd.Body)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				gs, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				if !goroutineJoined(pass, gs, hasAdd) {
					pass.Reportf(gs.Pos(), "goroutine has no completion or cancellation mechanism (WaitGroup, channel send/close, or context) visible in the enclosing function")
				}
				return true
			})
		}
	}
	return nil
}

// isTestFile reports whether f is a _test.go file; test goroutines are
// bounded by the test binary's lifetime and out of scope.
func isTestFile(pass *analysis.Pass, f *ast.File) bool {
	return strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go")
}

// goroutineJoined decides one go statement.
func goroutineJoined(pass *analysis.Pass, gs *ast.GoStmt, enclosingHasAdd bool) bool {
	if enclosingHasAdd {
		return true
	}
	if lit, ok := gs.Call.Fun.(*ast.FuncLit); ok {
		return bodySignalsCompletion(lit.Body)
	}
	// A named function or method: accept when the call is handed a
	// channel or context to report through.
	for _, arg := range gs.Call.Args {
		if t := pass.TypesInfo.Types[arg].Type; t != nil && carriesJoin(t) {
			return true
		}
	}
	return false
}

// bodySignalsCompletion reports whether a goroutine body contains a
// channel send, a close, or a Done/Wait method call.
func bodySignalsCompletion(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			found = true
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "close" {
				found = true
			}
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				switch sel.Sel.Name {
				case "Done", "Wait":
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// hasWaitGroupAdd reports whether body calls Add on a sync.WaitGroup.
func hasWaitGroupAdd(pass *analysis.Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Add" {
			return true
		}
		s := pass.TypesInfo.Selections[sel]
		if s == nil {
			return true
		}
		recv := s.Recv()
		if ptr, isPtr := recv.(*types.Pointer); isPtr {
			recv = ptr.Elem()
		}
		if namedIn(recv, "sync", "WaitGroup") {
			found = true
		}
		return !found
	})
	return found
}

// carriesJoin reports whether t can carry a join signal into a callee:
// a channel, or a context.Context.
func carriesJoin(t types.Type) bool {
	if _, ok := t.Underlying().(*types.Chan); ok {
		return true
	}
	return namedIn(t, "context", "Context")
}
