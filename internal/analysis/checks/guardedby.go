package checks

import (
	"go/ast"
	"go/types"
	"strings"

	"pcmap/internal/analysis"
)

// GuardedBy enforces the lock-discipline contract declared by field
// annotations, the static half of the concurrency ground rules the
// service, sweep runner, stats and tracer share (DESIGN.md §12):
//
//	type Server struct {
//		mu sync.Mutex
//		//pcmaplint:guardedby mu
//		runner *exp.Runner
//	}
//
// An annotated field may only be read or written while the named mutex
// field of the same struct is held. Lock state is tracked syntactically
// per function, in source order through branches: mu.Lock()/mu.RLock()
// acquire, mu.Unlock()/mu.RUnlock() release, defer mu.Unlock() holds to
// the end of the function, and a branch that unlocks and returns does
// not leak its release into the fall-through path. Function literals
// start with no locks held (a closure may run on another goroutine), so
// a goroutine body must take the lock itself.
//
// The alternative annotation
//
//	//pcmaplint:guardedby single-goroutine
//
// declares a field confined to one goroutine by design (the simulator's
// "one system, one goroutine" rule); the analyzer then reports any
// access to it from inside a `go` function literal.
//
// Known syntactic limits, deliberate for a per-function checker:
// composite-literal construction (&T{field: v}) is not an access, so
// constructors may initialize before the value is shared; helper
// methods that acquire the lock for their caller are not modeled — the
// lock and the access must be visible in the same function.
var GuardedBy = &analysis.Analyzer{
	Name: "guardedby",
	Doc:  "reports accesses to //pcmaplint:guardedby fields without the named mutex held",
	Run:  runGuardedBy,
}

// singleGoroutine is the guardedby annotation value declaring
// goroutine confinement instead of a mutex.
const singleGoroutine = "single-goroutine"

// guardSpec is one annotated field: the mutex that guards it, or nil
// for single-goroutine confinement.
type guardSpec struct {
	mu     *types.Var
	muName string
}

// lockKey identifies one held lock: the object the receiver expression
// roots at (a receiver or local variable) plus the mutex field.
type lockKey struct {
	base types.Object
	mu   *types.Var
}

func runGuardedBy(pass *analysis.Pass) error {
	g := &guardChecker{pass: pass, guards: collectGuards(pass)}
	if len(g.guards) == 0 {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			g.stmts(fd.Body.List, map[lockKey]bool{}, false)
		}
	}
	return nil
}

// collectGuards scans struct declarations for guardedby annotations,
// reporting malformed ones (no value, unknown mutex field, or a guard
// that is not a sync.Mutex/RWMutex).
func collectGuards(pass *analysis.Pass) map[*types.Var]guardSpec {
	guards := map[*types.Var]guardSpec{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok || st.Fields == nil {
				return true
			}
			// Field name -> object, for resolving the named mutex.
			byName := map[string]*types.Var{}
			for _, field := range st.Fields.List {
				for _, name := range field.Names {
					if v, ok := pass.TypesInfo.Defs[name].(*types.Var); ok {
						byName[name.Name] = v
					}
				}
			}
			for _, field := range st.Fields.List {
				arg, ok := fieldDirective(field, "pcmaplint:guardedby")
				if !ok {
					continue
				}
				if arg == "" {
					pass.Reportf(field.Pos(), "pcmaplint:guardedby needs a mutex field name or %q", singleGoroutine)
					continue
				}
				var spec guardSpec
				if arg == singleGoroutine {
					spec = guardSpec{muName: singleGoroutine}
				} else {
					mu := byName[arg]
					if mu == nil {
						pass.Reportf(field.Pos(), "pcmaplint:guardedby names %q, which is not a field of this struct", arg)
						continue
					}
					if !isMutexType(mu.Type()) {
						pass.Reportf(field.Pos(), "pcmaplint:guardedby names %q, which is not a sync.Mutex or sync.RWMutex", arg)
						continue
					}
					spec = guardSpec{mu: mu, muName: arg}
				}
				for _, name := range field.Names {
					if v := byName[name.Name]; v != nil {
						guards[v] = spec
					}
				}
			}
			return true
		})
	}
	return guards
}

// fieldDirective returns the argument of a //pcmaplint:<name> directive
// in the field's doc or trailing comment ("" when the directive has no
// argument), its position, and whether one was found.
func fieldDirective(field *ast.Field, directive string) (arg string, ok bool) {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			if !strings.HasPrefix(text, directive) {
				continue
			}
			rest := strings.TrimPrefix(text, directive)
			if rest != "" && !strings.HasPrefix(rest, " ") && !strings.HasPrefix(rest, "\t") {
				continue // a longer directive name, not ours
			}
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				return "", true
			}
			return fields[0], true
		}
	}
	return "", false
}

// isMutexType reports whether t is sync.Mutex or sync.RWMutex (or a
// pointer to one).
func isMutexType(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	return namedIn(t, "sync", "Mutex") || namedIn(t, "sync", "RWMutex")
}

// guardChecker walks function bodies threading the held-lock set
// through the statement structure.
type guardChecker struct {
	pass   *analysis.Pass
	guards map[*types.Var]guardSpec
}

// stmts checks a statement list in source order and reports whether it
// terminates abruptly (return/branch/panic), mutating held in place.
func (g *guardChecker) stmts(list []ast.Stmt, held map[lockKey]bool, inGo bool) bool {
	for _, s := range list {
		if g.stmt(s, held, inGo) {
			return true
		}
	}
	return false
}

func (g *guardChecker) stmt(s ast.Stmt, held map[lockKey]bool, inGo bool) bool {
	switch s := s.(type) {
	case nil:
		return false
	case *ast.ExprStmt:
		if key, locks, ok := g.lockCall(s.X); ok {
			held[key] = locks
			if !locks {
				delete(held, key)
			}
			return false
		}
		g.expr(s.X, held, inGo)
		return isPanicCall(s.X)
	case *ast.DeferStmt:
		if _, locks, ok := g.lockCall(s.Call); ok && !locks {
			return false // deferred unlock: the lock stays held to function end
		}
		// Deferred closures and calls run at return; approximate with the
		// lock state at the defer site.
		g.expr(s.Call, held, inGo)
		return false
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			g.expr(e, held, inGo)
		}
		for _, e := range s.Lhs {
			g.expr(e, held, inGo)
		}
		return false
	case *ast.IncDecStmt:
		g.expr(s.X, held, inGo)
		return false
	case *ast.SendStmt:
		g.expr(s.Chan, held, inGo)
		g.expr(s.Value, held, inGo)
		return false
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			g.expr(e, held, inGo)
		}
		return true
	case *ast.BranchStmt:
		return true
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						g.expr(e, held, inGo)
					}
				}
			}
		}
		return false
	case *ast.GoStmt:
		// The goroutine starts with no locks held, whatever the spawner
		// holds; it is also the boundary single-goroutine fields must not
		// cross.
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			g.stmts(lit.Body.List, map[lockKey]bool{}, true)
		} else {
			g.expr(s.Call.Fun, held, inGo)
		}
		for _, e := range s.Call.Args {
			g.expr(e, held, inGo)
		}
		return false
	case *ast.BlockStmt:
		return g.stmts(s.List, held, inGo)
	case *ast.LabeledStmt:
		return g.stmt(s.Stmt, held, inGo)
	case *ast.IfStmt:
		g.stmt(s.Init, held, inGo)
		g.expr(s.Cond, held, inGo)
		thenHeld := cloneLocks(held)
		thenTerm := g.stmts(s.Body.List, thenHeld, inGo)
		elseHeld := cloneLocks(held)
		elseTerm := false
		if s.Else != nil {
			elseTerm = g.stmt(s.Else, elseHeld, inGo)
		}
		mergeBranches(held, thenHeld, thenTerm, elseHeld, elseTerm)
		return thenTerm && elseTerm && s.Else != nil
	case *ast.ForStmt:
		g.stmt(s.Init, held, inGo)
		g.expr(s.Cond, held, inGo)
		bodyHeld := cloneLocks(held)
		g.stmts(s.Body.List, bodyHeld, inGo)
		g.stmt(s.Post, bodyHeld, inGo)
		intersectLocks(held, bodyHeld)
		return false
	case *ast.RangeStmt:
		g.expr(s.X, held, inGo)
		bodyHeld := cloneLocks(held)
		g.stmts(s.Body.List, bodyHeld, inGo)
		intersectLocks(held, bodyHeld)
		return false
	case *ast.SwitchStmt:
		g.stmt(s.Init, held, inGo)
		g.expr(s.Tag, held, inGo)
		g.clauses(s.Body, held, inGo)
		return false
	case *ast.TypeSwitchStmt:
		g.stmt(s.Init, held, inGo)
		g.stmt(s.Assign, held, inGo)
		g.clauses(s.Body, held, inGo)
		return false
	case *ast.SelectStmt:
		return g.clauses(s.Body, held, inGo)
	default:
		return false
	}
}

// clauses checks every case/comm clause of a switch or select against a
// copy of held, then merges the non-terminating outcomes. It returns
// true only when every clause terminates (a select always runs one).
func (g *guardChecker) clauses(body *ast.BlockStmt, held map[lockKey]bool, inGo bool) bool {
	allTerm := len(body.List) > 0
	merged := cloneLocks(held)
	anyFall := false
	for _, clause := range body.List {
		clHeld := cloneLocks(held)
		var term bool
		switch c := clause.(type) {
		case *ast.CaseClause:
			for _, e := range c.List {
				g.expr(e, clHeld, inGo)
			}
			term = g.stmts(c.Body, clHeld, inGo)
		case *ast.CommClause:
			g.stmt(c.Comm, clHeld, inGo)
			term = g.stmts(c.Body, clHeld, inGo)
		}
		if !term {
			if !anyFall {
				merged = clHeld
				anyFall = true
			} else {
				intersectLocks(merged, clHeld)
			}
			allTerm = false
		}
	}
	if anyFall {
		intersectLocks(held, merged)
	}
	return allTerm
}

// expr scans an expression for guarded-field accesses under the current
// lock state. Function literals are checked as independent functions
// with no locks held: a closure may outlive the critical section it was
// created in.
func (g *guardChecker) expr(e ast.Expr, held map[lockKey]bool, inGo bool) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			g.stmts(n.Body.List, map[lockKey]bool{}, inGo)
			return false
		case *ast.SelectorExpr:
			g.access(n, held, inGo)
		}
		return true
	})
}

// access reports one guarded-field selection made without its lock.
func (g *guardChecker) access(se *ast.SelectorExpr, held map[lockKey]bool, inGo bool) {
	sel := g.pass.TypesInfo.Selections[se]
	if sel == nil || sel.Kind() != types.FieldVal {
		return
	}
	v, ok := sel.Obj().(*types.Var)
	if !ok {
		return
	}
	spec, ok := g.guards[v]
	if !ok {
		return
	}
	if spec.mu == nil {
		if inGo {
			g.pass.Reportf(se.Sel.Pos(), "field %s is declared %s but is accessed inside a goroutine", v.Name(), singleGoroutine)
		}
		return
	}
	base := rootObject(g.pass, se.X)
	if base == nil {
		return // untrackable receiver expression; out of scope for a syntactic check
	}
	if !held[lockKey{base, spec.mu}] {
		g.pass.Reportf(se.Sel.Pos(), "field %s is guarded by %s, which is not held here", v.Name(), spec.muName)
	}
}

// lockCall matches E.mu.Lock/RLock/Unlock/RUnlock() where mu is a
// mutex-typed field; locks reports acquisition vs release.
func (g *guardChecker) lockCall(e ast.Expr) (key lockKey, locks, ok bool) {
	call, isCall := e.(*ast.CallExpr)
	if !isCall {
		return lockKey{}, false, false
	}
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return lockKey{}, false, false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		locks = true
	case "Unlock", "RUnlock":
	default:
		return lockKey{}, false, false
	}
	muSel, isSel := sel.X.(*ast.SelectorExpr)
	if !isSel {
		return lockKey{}, false, false
	}
	muField := g.pass.TypesInfo.Selections[muSel]
	if muField == nil || muField.Kind() != types.FieldVal {
		return lockKey{}, false, false
	}
	mu, isVar := muField.Obj().(*types.Var)
	if !isVar || !isMutexType(mu.Type()) {
		return lockKey{}, false, false
	}
	base := rootObject(g.pass, muSel.X)
	if base == nil {
		return lockKey{}, false, false
	}
	return lockKey{base, mu}, locks, true
}

// rootObject resolves the base identifier of a selector chain
// (s.cfg.x -> the object of s), or nil for receivers that are not
// rooted in a plain identifier.
func rootObject(pass *analysis.Pass, e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.Ident:
			if obj := pass.TypesInfo.Uses[x]; obj != nil {
				return obj
			}
			return pass.TypesInfo.Defs[x]
		default:
			return nil
		}
	}
}

// isPanicCall reports whether e is a call to the predeclared panic.
func isPanicCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}

// cloneLocks copies a held-lock set.
func cloneLocks(held map[lockKey]bool) map[lockKey]bool {
	out := make(map[lockKey]bool, len(held))
	for k, v := range held {
		out[k] = v
	}
	return out
}

// intersectLocks drops from dst every lock not also held in other: a
// lock survives a join point only when held on every path into it.
func intersectLocks(dst, other map[lockKey]bool) {
	for k := range dst {
		if !other[k] {
			delete(dst, k)
		}
	}
}

// mergeBranches resolves an if/else join: a terminating branch does not
// constrain the fall-through state.
func mergeBranches(held, thenHeld map[lockKey]bool, thenTerm bool, elseHeld map[lockKey]bool, elseTerm bool) {
	switch {
	case thenTerm && elseTerm:
		// Nothing falls through; keep the pre-branch state for any dead
		// code that follows.
	case thenTerm:
		replaceLocks(held, elseHeld)
	case elseTerm:
		replaceLocks(held, thenHeld)
	default:
		intersectLocks(thenHeld, elseHeld)
		replaceLocks(held, thenHeld)
	}
}

func replaceLocks(dst, src map[lockKey]bool) {
	for k := range dst {
		delete(dst, k)
	}
	for k, v := range src {
		dst[k] = v
	}
}
