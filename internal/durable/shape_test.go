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
// fault is drawn at one call site in fs.go (one fault ladder); and each
// kind of file has one wire integrity check in the store, the one its
// decoder runs: the scrub's for the manifest, framesIntact's for the
// segments, the active one and the sealed ones alike. And the store reads a
// record's Type, LSN and SubWindow, never its payload: no function selects
// an AFR batch, its summaries, cells or sequence numbers, or calls the
// summary helpers, so what a logged record counts for is decided in one
// place, the controller's restore.
func TestStoreShape(t *testing.T) {
	const maxLines = 60
	type site struct{ file, fn string } // file is "durable/x.go" or "wire/x.go"
	calls := map[string][]site{}        // called expression (e.g. "s.ioWait.Add") → call sites
	payload := map[string]bool{"AFRs": true, "Summaries": true, "Cells": true, "Seq": true,
		"AppendSummary": true, "AppendSummaries": true, "SummaryAt": true}
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
					if sel, ok := n.(*ast.SelectorExpr); ok && dir == "." && payload[sel.Sel.Name] {
						t.Errorf("%s: %s selects %s: the store routes records by Type, LSN and SubWindow only",
							fset.Position(sel.Pos()), fn.Name.Name, types.ExprString(sel))
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
	one("DecodeSnapshot", in("durable", sites("DecodeSnapshot")), site{"durable/checkpoint.go", "loadCheckpointLocked"})
	one("VerifySnapshot", in("durable", sites("VerifySnapshot")), site{"durable/checkpoint.go", "Scrub"})
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

// TestCutFencing: every column record carries the term of the writer that
// cut it, adopting a term re-logs nothing, and a fenced writer neither logs
// a column record nor deletes a segment or sets one aside — not by
// checkpointing, not by scrubbing and not by recovering.
func TestCutFencing(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	cut := func(sw uint64, carry bool) *wire.Snapshot {
		snap := &wire.Snapshot{LastFinished: sw, HasFinished: true, Live: []uint64{sw}}
		if carry {
			snap.Columns = []wire.SnapColumn{column(sw, packet.AFR{Key: key(int(sw)), Attr: 1, SubWindow: sw})}
		}
		return snap
	}
	for term := uint64(1); term <= 2; term++ {
		next, err := s.CASTerm(term-1, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.AdoptTerm(next); err != nil {
			t.Fatal(err)
		}
		if got := s.CutFrom(); got != noCut {
			t.Fatalf("CutFrom = %d after adopting term %d, want none: the new writer's state is the log's fold", got, term)
		}
		// A heal re-logs every live column: a cut without it is refused.
		if err := s.Heal(cut(term, false)); err == nil {
			t.Fatal("a heal whose cut does not carry its live column was accepted")
		}
		if err := s.Heal(cut(term, true)); err != nil {
			t.Fatal(err)
		}
		var terms []uint64
		for _, name := range segFiles(t, dir) {
			for _, r := range frames(t, filepath.Join(dir, name)) {
				if r.Type == wire.WALColumn {
					terms = append(terms, r.Term)
				}
			}
		}
		if !slices.Equal(terms, []uint64{term}) {
			t.Fatalf("column records on disk carry terms %v, want the one term %d cut", terms, term)
		}
	}

	// Fence the writer, and leave damage the scrub or a recovery would
	// set aside.
	if _, err := s.CASTerm(2, 2); err != nil {
		t.Fatal(err)
	}
	before := segFiles(t, dir)
	rotted := filepath.Join(dir, before[len(before)-1])
	orig, err := os.ReadFile(rotted)
	if err != nil {
		t.Fatal(err)
	}
	buf := slices.Clone(orig)
	buf[len(buf)-1] ^= 0x40
	if err := os.WriteFile(rotted, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(cut(3, true)); !errors.Is(err, ErrFenced) {
		t.Fatalf("fenced checkpoint: %v, want ErrFenced", err)
	}
	if _, err := s.Scrub(); !errors.Is(err, ErrFenced) {
		t.Fatalf("fenced scrub: %v, want ErrFenced", err)
	}
	if after := segFiles(t, dir); !slices.Equal(before, after) {
		t.Fatalf("a fenced writer changed the segments: %v -> %v", before, after)
	}
	if err := os.WriteFile(rotted, orig, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	if after := segFiles(t, dir); !slices.Equal(before, after) {
		t.Fatalf("a fenced recovery changed the segments: %v -> %v", before, after)
	}
}

// frames decodes the segment at path up to a torn tail.
func frames(t *testing.T, path string) []*wire.WALRecord {
	t.Helper()
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out []*wire.WALRecord
	for off := wire.SegmentHeaderSize; off < len(buf); {
		rec, n, err := wire.DecodeWALRecord(buf[off:])
		if err != nil {
			break
		}
		out = append(out, rec)
		off += n
	}
	return out
}
