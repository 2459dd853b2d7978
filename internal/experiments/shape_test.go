package experiments

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// TestExperimentsShape holds the one-harness shape the accuracy
// experiments were given instead of promising it: every deployment is
// built by deploy, the package's one omniwindow.New call; TW1/TW2 run in
// harness.tumbling, the one baseline.RunTumbling call; and no hand-rolled
// maxi shadows the builtin max. A new experiment adds rows and references,
// not another copy of the window comparison.
func TestExperimentsShape(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	calls := map[string]int{}
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Name.Name == "maxi" {
				t.Errorf("%s declares maxi; use the builtin max", name)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
					if pkg, ok := sel.X.(*ast.Ident); ok {
						calls[pkg.Name+"."+sel.Sel.Name]++
					}
				}
			}
			return true
		})
	}
	for _, fn := range []string{"omniwindow.New", "baseline.RunTumbling"} {
		if calls[fn] != 1 {
			t.Errorf("%d %s call sites in non-test files, want exactly 1", calls[fn], fn)
		}
	}
}
