package omniwindow

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"slices"
	"strings"
	"testing"
)

// TestBoundaryPathShape holds the shape the boundary pipeline was given
// instead of promising it: no function on the boundary path (or New) grows
// past 60 lines, collect stays a short list of phase calls, and the files
// that drive the pipeline never learn which transport they hold — they do
// not mention the identifiers rdma or RDMA (longer names such as
// noteRDMAShed and Stats.RDMAReplayed are not those identifiers). The next
// flush point or fault arc has to go into a phase, not back into collect.
// seamShape holds the single call sites across the switch-controller seam.
func TestBoundaryPathShape(t *testing.T) {
	seamShape(t)
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

// seamShape holds the switch-to-controller seam to one path per message, so
// none can quietly grow a second that then drifts from the first: the
// controller is applied records in exactly two places — record, the live
// path that logs each record and then applies it, and replayLog, which
// applies the logged ones — so a replay folds what the live run folded;
// nothing hands the controller a packet (no function calls Receive); one
// function announces a termination (the only one that builds a WALTrigger
// record, and the only reader of the tracker's key count besides
// enumeration); the serving controller changes only where one is built —
// New and promote; no scrape-time metric func in obs.go reads a
// deployment field the run goroutine writes; and nothing reaches the
// controller as a packet clone: AFRs, spilled keys and spikes leave the
// pipeline pass as records, so no function calls switchsim's
// CloneToController or reads Output.ToController.
func seamShape(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	selected := func(e ast.Expr) string { // Sel of x.Sel, "" for anything else
		if sel, ok := e.(*ast.SelectorExpr); ok {
			return sel.Sel.Name
		}
		return ""
	}
	in := map[string][]string{} // what → the functions it occurs in
	for _, f := range pkgs["omniwindow"].Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					switch n.Sel.Name {
					case "CloneToController", "ToController":
						in["clone to controller"] = append(in["clone to controller"], fn.Name.Name)
					case "WALTrigger":
						in[n.Sel.Name] = append(in[n.Sel.Name], fn.Name.Name)
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if selected(lhs) == "ctrl" {
							in["ctrl ="] = append(in["ctrl ="], fn.Name.Name)
						}
					}
				case *ast.CallExpr:
					switch callee := selected(n.Fun); callee {
					case "Apply", "Receive", "KeyCount":
						in[callee] = append(in[callee], fn.Name.Name)
					case "CounterFunc", "GaugeFunc":
						ast.Inspect(n.Args[len(n.Args)-1], func(m ast.Node) bool {
							sel, ok := m.(*ast.SelectorExpr)
							if !ok {
								return true
							}
							if id, ok := sel.X.(*ast.Ident); ok && id.Name == "d" &&
								slices.Contains([]string{"stats", "term", "failedOver", "demoted"}, sel.Sel.Name) {
								t.Errorf("%s: a scrape-time func reads d.%s beside the goroutine that writes it; set a handle at the write",
									fset.Position(sel.Pos()), sel.Sel.Name)
							}
							return true
						})
					}
				}
				return true
			})
		}
	}
	for what, want := range map[string][]string{
		"Apply":               {"record", "replayLog"},
		"Receive":             nil,
		"WALTrigger":          {"announce"},
		"KeyCount":            {"announce", "enumerate"},
		"ctrl =":              {"New", "promote"},
		"clone to controller": nil,
	} {
		got := in[what]
		if slices.Sort(got); !slices.Equal(got, want) {
			t.Errorf("%s occurs in %v, want exactly %v", what, got, want)
		}
	}
}
