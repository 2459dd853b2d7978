package durable

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
	"testing"
)

// TestStoreShape holds the one-way-per-I/O-job shape the store was given
// instead of promising it: no non-test function grows past 60 lines; retry
// backoff is charged in exactly one function, the retry loop; each write
// fault is drawn at one call site in fs.go (one fault ladder); each wire
// decoder runs the integrity check the scrubber runs; and recovery's
// loader is the only place the store decodes a checkpoint.
func TestStoreShape(t *testing.T) {
	const maxLines = 60
	type site struct{ file, fn string }
	calls := map[string][]site{} // called expression (e.g. "s.ioWait.Add") → call sites
	fset := token.NewFileSet()
	for _, dir := range []string{".", "../wire"} {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
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
				if dir == "." && n > maxLines {
					t.Errorf("%s: %s is %d lines, want <= %d", name, fn.Name.Name, n, maxLines)
				}
				ast.Inspect(fn, func(n ast.Node) bool {
					if call, ok := n.(*ast.CallExpr); ok {
						e := types.ExprString(call.Fun)
						calls[e] = append(calls[e], site{filepath.Base(name), fn.Name.Name})
					}
					return true
				})
			}
		}
	}
	// sites lists the calls whose expression is name or ends in "."+name.
	sites := func(name string) []site {
		var out []site
		for e, ss := range calls {
			if e == name || strings.HasSuffix(e, "."+name) {
				out = append(out, ss...)
			}
		}
		return out
	}
	one := func(name string, want site) {
		if got := sites(name); len(got) != 1 || got[0] != want {
			t.Errorf("%s is called at %v, want only in %s %s", name, got, want.file, want.fn)
		}
	}
	one("ioWait.Add", site{"store.go", "retry"})
	for _, draw := range []string{"ShortWriteAt", "BitRotAt", "ENOSPCAt"} {
		one(draw, site{"fs.go", "write"})
	}
	one("DecodeSnapshot", site{"store.go", "loadCheckpointLocked"})
	calledIn := func(name string, want site) {
		for _, s := range sites(name) {
			if s == want {
				return
			}
		}
		t.Errorf("%s %s does not call %s", want.file, want.fn, name)
	}
	calledIn("VerifyWALFrame", site{"snapshot.go", "DecodeWALRecord"})
	calledIn("VerifySnapshot", site{"snapshot.go", "DecodeSnapshot"})
	calledIn("VerifyWALFrame", site{"store.go", "framesIntact"})
	calledIn("VerifySnapshot", site{"store.go", "Scrub"})
}
