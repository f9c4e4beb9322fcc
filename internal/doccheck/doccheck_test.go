// Package doccheck holds the repository to what its docs and design say:
// every exported identifier of the documented packages carries a doc
// comment, docs/METRICS.md lists exactly the emitted metrics
// (metricsref_test.go), EXPERIMENTS.md's raw tables equal the small-scale
// golden (experiments_test.go), and the architecture rules hold
// (rules_test.go).
// Each is a plain test over the sources, so go test ./... runs it with no
// external linter dependency.
package doccheck

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// checked lists the packages held to full godoc coverage, relative to the
// repository root. Extend it as packages graduate to documented-API status.
var checked = []string{
	"internal/sim/engine",
	"internal/sim/memsys",
	"internal/sim/machine",
	"internal/sim/trace",
	"internal/dsim/offload",
	"internal/dsim/fc",
	"internal/dsim/bskiplist",
	"internal/hds",
	"internal/core",
	"internal/cds",
	"internal/metrics",
	"internal/exp",
	"internal/server",
	"internal/store",
	"internal/admin",
}

// TestExportedIdentifiersDocumented parses every non-test file of the
// checked packages and fails on any exported declaration — package clause,
// func, method on an exported type, type, or const/var group — that has no
// doc comment. Grouped const/var specs are covered by the group's comment
// or a per-spec comment.
func TestExportedIdentifiersDocumented(t *testing.T) {
	var missing []string
	for _, pkg := range checked {
		dir := filepath.Join("..", "..", pkg)
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ParseComments)
		if err != nil {
			t.Fatalf("parse %s: %v", pkg, err)
		}
		for _, p := range pkgs {
			missing = append(missing, checkPackage(fset, pkg, p)...)
		}
	}
	if len(missing) > 0 {
		t.Errorf("%d exported identifiers lack doc comments:\n  %s",
			len(missing), strings.Join(missing, "\n  "))
	}
}

func checkPackage(fset *token.FileSet, path string, p *ast.Package) []string {
	var missing []string
	report := func(pos token.Pos, what string) {
		missing = append(missing, fmt.Sprintf("%s: %s", fset.Position(pos), what))
	}
	hasPkgDoc := false
	for _, f := range p.Files {
		if f.Doc != nil {
			hasPkgDoc = true
		}
	}
	if !hasPkgDoc {
		report(token.NoPos, fmt.Sprintf("package %s has no package doc comment", path))
	}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() || !exportedReceiver(d) {
					continue
				}
				if d.Doc == nil {
					report(d.Pos(), "func/method "+funcName(d))
				}
			case *ast.GenDecl:
				checkGenDecl(d, report)
			}
		}
	}
	return missing
}

// exportedReceiver reports whether a method's receiver type is exported
// (free functions count as exported receivers).
func exportedReceiver(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	t := d.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if idx, ok := t.(*ast.IndexExpr); ok { // generic receiver T[P]
		t = idx.X
	}
	id, ok := t.(*ast.Ident)
	return ok && id.IsExported()
}

func funcName(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return d.Name.Name
	}
	t := d.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "." + d.Name.Name
	}
	return d.Name.Name
}

func checkGenDecl(d *ast.GenDecl, report func(token.Pos, string)) {
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if s.Name.IsExported() && d.Doc == nil && s.Doc == nil {
				report(s.Pos(), "type "+s.Name.Name)
			}
		case *ast.ValueSpec:
			// A const/var group's doc covers every spec; otherwise each
			// exported spec needs its own comment (trailing line comments
			// count, matching idiomatic enum blocks).
			if d.Doc != nil || s.Doc != nil || s.Comment != nil {
				continue
			}
			for _, name := range s.Names {
				if name.IsExported() {
					report(name.Pos(), "const/var "+name.Name)
				}
			}
		}
	}
}
