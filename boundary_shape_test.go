package omniwindow

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// TestBoundaryPathShape holds the shape the boundary pipeline was given
// instead of promising it: no function on the boundary path (or New) grows
// past 60 lines, collect stays a short list of phase calls, and the files
// that drive the pipeline never learn which transport they hold — they do
// not mention the identifiers rdma or RDMA (longer names such as
// noteRDMAShed and Stats.RDMAReplayed are not those identifiers). The next
// flush point or fault arc has to go into a phase, not back into collect.
func TestBoundaryPathShape(t *testing.T) {
	const maxLines = 60
	fset := token.NewFileSet()
	lines := func(n ast.Node) int { return fset.Position(n.End()).Line - fset.Position(n.Pos()).Line + 1 }
	for _, file := range []struct {
		name       string
		only       string // check just this function's length ("" = every function)
		transports bool   // may name the transports
	}{
		{"boundary.go", "", false},
		{"standby.go", "", false},
		{"durability.go", "", false},
		{"transport.go", "", true},
		{"omniwindow.go", "New", true},
	} {
		f, err := parser.ParseFile(fset, file.name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || (file.only != "" && fn.Name.Name != file.only) {
				continue
			}
			if n := lines(fn); n > maxLines {
				t.Errorf("%s: %s is %d lines, want <= %d", file.name, fn.Name.Name, n, maxLines)
			}
		}
		if file.transports {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && (id.Name == "rdma" || id.Name == "RDMA") {
				t.Errorf("%s mentions %s: the pipeline must not know its transport", fset.Position(id.Pos()), id.Name)
			}
			return true
		})
	}

	f, err := parser.ParseFile(fset, "deployment.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, decl := range f.Decls {
		if fn, ok := decl.(*ast.FuncDecl); ok && fn.Name.Name == "collect" {
			if n := lines(fn); n > 40 {
				t.Errorf("collect is %d lines, want <= 40", n)
			}
			return
		}
	}
	t.Error("deployment.go has no collect")
}
