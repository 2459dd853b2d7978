package controller

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
	"testing"
)

// TestControllerShape holds the shape the finish was given instead of
// promising it: no function in the package's non-test files grows past 80
// lines, finishOne stays a short pass/fold/settle sequence, and there is
// exactly one forEachShard call site — one barrier per finish. A new step
// belongs in shard.finish (per shard) or settle (under Controller.mu), not
// in a second pass over the shards. And a cell is folded in one place,
// O2's insert: restore goes through it too, so there is no second fold
// path to drift from the finish's.
func TestControllerShape(t *testing.T) {
	const maxLines, maxFinishOne = 80, 60
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	passes, sawFinishOne := 0, false
	var folds []string // the functions calling table.fold
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			n := fset.Position(fn.End()).Line - fset.Position(fn.Pos()).Line + 1
			limit := maxLines
			if fn.Name.Name == "finishOne" {
				limit, sawFinishOne = maxFinishOne, true
			}
			if n > limit {
				t.Errorf("%s: %s is %d lines, want <= %d", name, fn.Name.Name, n, limit)
			}
			ast.Inspect(fn, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
						// A table is t inside its methods and x.table outside
						// them; Controller.fold is the finish's other fold.
						x := types.ExprString(sel.X)
						switch {
						case sel.Sel.Name == "forEachShard":
							passes++
						case sel.Sel.Name == "fold" && (x == "t" || strings.HasSuffix(x, ".table")):
							folds = append(folds, fn.Name.Name)
						}
					}
				}
				return true
			})
		}
	}
	if !sawFinishOne {
		t.Error("the package has no finishOne")
	}
	if passes != 1 {
		t.Errorf("%d forEachShard call sites, want exactly 1", passes)
	}
	if len(folds) != 1 || folds[0] != "insert" {
		t.Errorf("table.fold is called from %v, want exactly once, from insert", folds)
	}
}

// TestLibraryOpensNoSocket holds where the UDP front end lives: the
// collector and its lossy socket wrapper belong to examples/udpcollector,
// their one caller. So the non-test files of this package and of
// internal/faults import no net, and internal/wire, which no longer pools
// datagram buffers, does not import internal/pool.
func TestLibraryOpensNoSocket(t *testing.T) {
	banned := map[string]string{".": "net", "../faults": "net", "../wire": "omniwindow/internal/pool"}
	for dir, path := range banned {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("no Go files in %s: %v", dir, err)
		}
		for _, name := range files {
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range f.Imports {
				if strings.Trim(imp.Path.Value, `"`) == path {
					t.Errorf("%s imports %s", name, path)
				}
			}
		}
	}
}
