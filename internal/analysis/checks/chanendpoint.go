package checks

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"pcmap/internal/analysis"
)

// ChanEndpoint enforces channel ownership: every channel a non-test
// function sends on must have a provable owner — either the package
// also closes the channel (the close site is the owner), or the
// channel's declaration carries an ownership annotation:
//
//	//pcmaplint:chanowner never closed; workers exit via the stop channel
//	queue chan *task
//
// The annotation goes on, or on the line above, the declaration (a
// struct field or the := / var site of a local), and its reason text is
// mandatory — a bare directive is itself reported, exactly like a
// reasonless //pcmaplint:ignore. The service's job queues and the
// sweep runner's worker hand-offs are channels, and a channel with no
// owner on record is a channel whose shutdown order nobody has thought
// about (send-on-closed panics, leaked receivers).
//
// Sends on channels the checker cannot resolve to a declaration (calls
// returning channels, map elements) are out of scope.
var ChanEndpoint = &analysis.Analyzer{
	Name: "chanendpoint",
	Doc:  "reports sends on channels with neither a close in the package nor a pcmaplint:chanowner annotation",
	Run:  runChanEndpoint,
}

const chanOwnerDirective = "pcmaplint:chanowner"

func runChanEndpoint(pass *analysis.Pass) error {
	owned := collectChanOwners(pass)
	closed := map[types.Object]bool{}
	type send struct {
		pos token.Pos
		obj types.Object
	}
	var sends []send

	for _, f := range pass.Files {
		test := isTestFile(pass, f)
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				// close(ch) anywhere in the package (tests included: a
				// test that owns a channel's shutdown is still an owner).
				if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "close" && len(n.Args) == 1 {
					if obj := chanObject(pass, n.Args[0]); obj != nil {
						closed[obj] = true
					}
				}
			case *ast.SendStmt:
				if test {
					return true
				}
				if obj := chanObject(pass, n.Chan); obj != nil {
					sends = append(sends, send{n.Arrow, obj})
				}
			}
			return true
		})
	}

	sort.Slice(sends, func(i, j int) bool { return sends[i].pos < sends[j].pos })
	for _, s := range sends {
		if closed[s.obj] || owned[s.obj] {
			continue
		}
		pass.Reportf(s.pos, "send on %s, which this package never closes and whose declaration has no pcmaplint:chanowner annotation", s.obj.Name())
	}
	return nil
}

// collectChanOwners maps declared objects to their chanowner
// annotations, matching a directive on the declaration line or the line
// immediately above. Reasonless directives are reported.
func collectChanOwners(pass *analysis.Pass) map[types.Object]bool {
	// File -> line -> annotated, from every directive comment.
	annotated := map[string]map[int]bool{}
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, chanOwnerDirective) {
					continue
				}
				pos := pass.Fset.Position(c.Pos())
				if strings.TrimSpace(strings.TrimPrefix(text, chanOwnerDirective)) == "" {
					pass.Reportf(c.Pos(), "pcmaplint:chanowner directive needs a reason (who owns the channel and how it shuts down)")
					continue
				}
				if annotated[pos.Filename] == nil {
					annotated[pos.Filename] = map[int]bool{}
				}
				annotated[pos.Filename][pos.Line] = true
			}
		}
	}

	owned := map[types.Object]bool{}
	for ident, obj := range pass.TypesInfo.Defs {
		if obj == nil {
			continue
		}
		if _, ok := obj.(*types.Var); !ok {
			continue
		}
		pos := pass.Fset.Position(ident.Pos())
		lines := annotated[pos.Filename]
		if lines == nil {
			continue
		}
		if lines[pos.Line] || lines[pos.Line-1] {
			owned[obj] = true
		}
	}
	return owned
}

// chanObject resolves a send/close operand to the declared object of
// the channel: a local or package variable, or a struct field.
func chanObject(pass *analysis.Pass, e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.Ident:
			if obj := pass.TypesInfo.Uses[x]; obj != nil {
				return obj
			}
			return pass.TypesInfo.Defs[x]
		case *ast.SelectorExpr:
			if sel := pass.TypesInfo.Selections[x]; sel != nil && sel.Kind() == types.FieldVal {
				return sel.Obj()
			}
			// Qualified package-level variable (pkg.Chan).
			if obj := pass.TypesInfo.Uses[x.Sel]; obj != nil {
				return obj
			}
			return nil
		default:
			return nil
		}
	}
}
