package durable

import (
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"omniwindow/internal/packet"
	"omniwindow/internal/wire"
)

// TestStoreShape holds the one-way-per-I/O-job shape the store was given
// instead of promising it: no non-test function grows past 60 lines; retry
// backoff is charged in exactly one function, the retry loop; every read,
// write, rename and remove of a file goes through that loop; each write
// fault is drawn at one call site in fs.go (one fault ladder); each kind
// of file has one wire integrity check in the store, the one its decoder
// runs, shared by the manifest and the cut files; and one loader decodes
// them both.
func TestStoreShape(t *testing.T) {
	const maxLines = 60
	type site struct{ file, fn string } // file is "durable/x.go" or "wire/x.go"
	calls := map[string][]site{}        // called expression (e.g. "s.ioWait.Add") → call sites
	fset := token.NewFileSet()
	for _, dir := range []string{".", "../wire"} {
		pkg := "durable"
		if dir != "." {
			pkg = filepath.Base(dir)
		}
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
						calls[e] = append(calls[e], site{pkg + "/" + filepath.Base(name), fn.Name.Name})
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
	// in keeps the sites in one package.
	in := func(pkg string, ss []site) []site {
		return slices.DeleteFunc(ss, func(s site) bool { return !strings.HasPrefix(s.file, pkg+"/") })
	}
	one := func(name string, got []site, want site) {
		if len(got) != 1 || got[0] != want {
			t.Errorf("%s is called at %v, want only in %s %s", name, got, want.file, want.fn)
		}
	}
	one("ioWait.Add", sites("ioWait.Add"), site{"durable/store.go", "retry"})
	for _, draw := range []string{"ShortWriteAt", "BitRotAt", "ENOSPCAt"} {
		one(draw, sites(draw), site{"durable/fs.go", "write"})
	}
	one("DecodeSnapshot", in("durable", sites("DecodeSnapshot")), site{"durable/cut.go", "loadSnapLocked"})
	one("VerifySnapshot", in("durable", sites("VerifySnapshot")), site{"durable/cut.go", "verifyLocked"})
	one("VerifyWALFrame", in("durable", sites("VerifyWALFrame")), site{"durable/store.go", "framesIntact"})
	calledIn := func(name string, want site) {
		if !slices.Contains(sites(name), want) {
			t.Errorf("%s %s does not call %s", want.file, want.fn, name)
		}
	}
	calledIn("VerifyWALFrame", site{"wire/snapshot.go", "DecodeWALRecord"})
	calledIn("VerifySnapshot", site{"wire/snapshot.go", "DecodeSnapshot"})

	// Every file operation that can fail transiently runs inside the one
	// retry loop: the store calls the seam only from the four wrappers,
	// and each wrapper calls retry.
	for op, wrapper := range map[string]string{
		"fsys.ReadFile": "readFile", "fsys.WriteFile": "writeFile",
		"fsys.Rename": "rename", "fsys.Remove": "remove",
	} {
		one(op, in("durable", sites(op)), site{"durable/store.go", wrapper})
		calledIn("s.retry", site{"durable/store.go", wrapper})
	}
}

// TestCutFencing: every cut file carries the term of the writer that cut
// it, and a fenced writer neither writes a cut file nor deletes one — not
// by checkpointing, not by scrubbing and not by recovering.
func TestCutFencing(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	cut := func(sw uint64, live ...uint64) error {
		snap := &wire.Snapshot{LastFinished: sw, HasFinished: true,
			Columns: []wire.SnapColumn{{SW: sw, Cells: []packet.AFR{{Key: key(int(sw)), Attr: 1, SubWindow: sw}}}}}
		for _, l := range live {
			snap.Live = append(snap.Live, wire.SnapLive{SW: l})
		}
		return s.Checkpoint(snap)
	}
	if err := cut(1, 0, 1); err == nil {
		t.Fatal("a checkpoint listing a live sub-window no cut file holds was accepted")
	}
	for term := uint64(1); term <= 2; term++ {
		next, err := s.CASTerm(term-1, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.AdoptTerm(next); err != nil {
			t.Fatal(err)
		}
		if err := cut(term, 1, term); err != nil {
			t.Fatal(err)
		}
	}
	files := cutFiles(t, dir)
	if len(files) != 2 {
		t.Fatalf("cut files %v, want one per term", files)
	}
	for i, name := range files {
		buf, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		snap, err := wire.DecodeSnapshot(buf)
		if err != nil {
			t.Fatal(err)
		}
		if snap.Term != uint64(i+1) {
			t.Fatalf("%s carries term %d, want %d", name, snap.Term, i+1)
		}
	}

	// Fence the writer, and leave debris beside the named cut files.
	if _, err := s.CASTerm(2, 2); err != nil {
		t.Fatal(err)
	}
	debris := filepath.Join(dir, "cut-000099.snap")
	if err := os.WriteFile(debris, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	before := cutFiles(t, dir)
	if err := cut(3, 1, 2, 3); !errors.Is(err, ErrFenced) {
		t.Fatalf("fenced checkpoint: %v, want ErrFenced", err)
	}
	if _, err := s.Scrub(); !errors.Is(err, ErrFenced) {
		t.Fatalf("fenced scrub: %v, want ErrFenced", err)
	}
	if _, _, err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	if after := cutFiles(t, dir); !slices.Equal(before, after) {
		t.Fatalf("a fenced writer changed the cut files: %v -> %v", before, after)
	}
}

// cutFiles lists the cut files in dir, sorted.
func cutFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		if _, ok := parseGen(e.Name(), cutPrefix, cutSuffix); ok {
			out = append(out, e.Name())
		}
	}
	return out
}
