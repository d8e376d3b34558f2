package analysis

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package ready for analysis. For
// module packages the in-package test files are merged into Syntax (Go
// forbids an in-package test file from importing a dependent of its own
// package, so the merge cannot create a cycle); external test packages
// (package foo_test) are returned as a separate Package.
type Package struct {
	PkgPath   string
	Name      string
	Fset      *token.FileSet
	Syntax    []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
}

// listedPackage is the subset of `go list -json` output the loader
// consumes.
type listedPackage struct {
	ImportPath  string
	Dir         string
	Export      string
	DepOnly     bool
	Standard    bool
	ForTest     string
	GoFiles     []string
	CgoFiles    []string
	TestGoFiles []string
	ImportMap   map[string]string
	Error       *struct{ Err string }
}

// Load enumerates the packages matching patterns (go list syntax, e.g.
// "./...") in the module rooted at dir, type-checks each from source
// with its in-package test files merged, and returns them sorted by
// import path. External test packages follow the package they test.
//
// Each package is checked as its test binary builds it (`go list
// -test`): a package with in-package tests as that test variant, and an
// external test package against the variant, through its ImportMap, so
// it sees what an export_test.go file exports. Imports are read from
// compiler export data (`go list -export`), so the module must build;
// Load reports the compiler's errors otherwise.
func Load(dir string, patterns ...string) ([]*Package, error) {
	listed, err := goList(dir, append([]string{"-deps", "-test"}, patterns...))
	if err != nil {
		return nil, err
	}
	exports := map[string]string{}
	var targets []*listedPackage
	for _, p := range listed {
		if p.Error != nil && !p.DepOnly {
			return nil, fmt.Errorf("analysis: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		// Skip dependencies, generated test mains (pkg.test), and a
		// package whose test variant (pkg [pkg.test]) stands in for it.
		if p.DepOnly || p.Standard || strings.HasSuffix(p.ImportPath, ".test") ||
			p.ForTest == "" && len(p.TestGoFiles) > 0 {
			continue
		}
		targets = append(targets, p)
	}
	// pkgPath drops a variant's " [pkg.test]" suffix.
	pkgPath := func(p *listedPackage) string {
		path, _, _ := strings.Cut(p.ImportPath, " ")
		return path
	}
	sort.Slice(targets, func(i, j int) bool {
		a, b := targets[i], targets[j]
		if ka, kb := cmp.Or(a.ForTest, pkgPath(a)), cmp.Or(b.ForTest, pkgPath(b)); ka != kb {
			return ka < kb
		}
		return pkgPath(a) < pkgPath(b)
	})

	fset := token.NewFileSet()
	shared := exportImporter(fset, exports, nil)
	var pkgs []*Package
	for _, t := range targets {
		if len(t.CgoFiles) > 0 {
			return nil, fmt.Errorf("analysis: %s uses cgo, which this loader does not support", t.ImportPath)
		}
		// An import map sends imports to test variants, whose export
		// data must not mix with the plain packages' in one importer.
		imp := shared
		if len(t.ImportMap) > 0 {
			imp = exportImporter(fset, exports, t.ImportMap)
		}
		pkg, err := checkFiles(fset, imp, pkgPath(t), t.Dir, t.GoFiles)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// goList runs `go list -e -export -json` with the given arguments and
// decodes the JSON stream.
func goList(dir string, args []string) ([]*listedPackage, error) {
	cmd := exec.Command("go", append([]string{"list", "-e", "-export", "-json"}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("analysis: go list: %v\n%s", err, stderr.String())
	}
	var pkgs []*listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		p := new(listedPackage)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("analysis: decoding go list output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// exportImporter resolves imports from compiler export data files,
// through importMap when the importing package has one.
func exportImporter(fset *token.FileSet, exports, importMap map[string]string) types.Importer {
	lookup := func(path string) (io.ReadCloser, error) {
		f := exports[cmp.Or(importMap[path], path)]
		if f == "" {
			return nil, fmt.Errorf("analysis: no export data for %q", path)
		}
		return os.Open(f)
	}
	return importer.ForCompiler(fset, "gc", lookup)
}

// checkFiles parses and type-checks one set of files as a package.
func checkFiles(fset *token.FileSet, imp types.Importer, pkgPath, dir string, files []string) (*Package, error) {
	var syntax []*ast.File
	for _, name := range files {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("analysis: %v", err)
		}
		syntax = append(syntax, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	var typeErrs []string
	conf := types.Config{
		Importer: imp,
		Error: func(err error) {
			typeErrs = append(typeErrs, err.Error())
		},
	}
	tpkg, _ := conf.Check(pkgPath, fset, syntax, info)
	if len(typeErrs) > 0 {
		max := len(typeErrs)
		if max > 10 {
			max = 10
		}
		return nil, fmt.Errorf("analysis: %s does not type-check:\n\t%s", pkgPath, strings.Join(typeErrs[:max], "\n\t"))
	}
	name := ""
	if len(syntax) > 0 {
		name = syntax[0].Name.Name
	}
	return &Package{
		PkgPath:   pkgPath,
		Name:      name,
		Fset:      fset,
		Syntax:    syntax,
		Types:     tpkg,
		TypesInfo: info,
	}, nil
}
