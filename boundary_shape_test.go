package omniwindow

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"

	"omniwindow/internal/faults"
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

// TestFailoverLeaseWaitAtBoundaryTime: the standby waits out the lease as
// it reads AT the boundary. Finalize and RunFor jump d.now far ahead before
// the trailing collection, so a crash failover at the last sub-window used
// to read the lease long expired and charge no wait at all.
func TestFailoverLeaseWaitAtBoundaryTime(t *testing.T) {
	for _, crashAt := range []uint64{2, 4} {
		d, err := New(batchConfig(func(c *Config) {
			c.CheckpointDir = t.TempDir()
			c.Standby = true
			c.Crash = &faults.CrashSchedule{Fixed: []uint64{crashAt}}
		}))
		if err != nil {
			t.Fatal(err)
		}
		quiet := runBatch(t, nil).Stats().MaxCollectVirtual
		d.RunFor(batchTrace(), 500*ms)
		if err := d.CloseDurability(); err != nil {
			t.Fatal(err)
		}
		st := d.Stats()
		if st.Failovers != 1 {
			t.Fatalf("crash at %d: %d failovers, want 1", crashAt, st.Failovers)
		}
		// Everything the takeover adds to the worst round beyond the lease
		// wait is one NACK round of backoff.
		ttl := 2 * d.cfg.SubWindow
		wait := st.MaxCollectVirtual - quiet - d.cfg.RetryBackoff
		if wait <= 0 || wait > ttl {
			t.Fatalf("crash at %d: lease wait %v, want in (0, %v] (worst round %v, fault-free %v)",
				crashAt, wait, ttl, st.MaxCollectVirtual, quiet)
		}
	}
}
