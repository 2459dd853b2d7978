package durable

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"omniwindow/internal/packet"
	"omniwindow/internal/wire"
)

func key(i int) packet.FlowKey {
	return packet.FlowKey{SrcIP: uint32(i), DstIP: 9, SrcPort: uint16(i), DstPort: 80, Proto: 6}
}

func TestStoreAppendAndRecover(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AppendTrigger(0, 3); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendBatch(0, 0, false, []packet.AFR{{Key: key(1), Attr: 5, Seq: 0}}); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendBatch(0, 0, true, []packet.AFR{{Key: key(2), Attr: 7, Seq: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendFinish(0); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendShed(1, 4); err != nil {
		t.Fatal(err)
	}

	snap, recs, err := s.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if snap != nil {
		t.Fatalf("unexpected checkpoint: %+v", snap)
	}
	if len(recs) != 5 {
		t.Fatalf("got %d records, want 5", len(recs))
	}
	// Batches, triggers, finishes and sheds share one log and replay in
	// issue order: LSNs strictly ascending from 1.
	wantTypes := []byte{wire.WALTrigger, wire.WALAFRBatch, wire.WALAFRBatch, wire.WALFinish, wire.WALShed}
	for i, r := range recs {
		if r.LSN != uint64(i+1) {
			t.Fatalf("record %d has LSN %d", i, r.LSN)
		}
		if r.Type != wantTypes[i] {
			t.Fatalf("record %d has type %d, want %d", i, r.Type, wantTypes[i])
		}
	}
	if !recs[2].Retrans {
		t.Fatal("retransmit flag lost")
	}
	s.Close()

	// Reopen: the LSN counter must resume past everything on disk.
	s2, err := OpenStore(dir, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.LSN() != 5 {
		t.Fatalf("reopened LSN = %d, want 5", s2.LSN())
	}
	if err := s2.AppendFinish(1); err != nil {
		t.Fatal(err)
	}
	_, recs, err = s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if got := recs[len(recs)-1].LSN; got != 6 {
		t.Fatalf("new record LSN = %d, want 6", got)
	}
}

func TestStoreCheckpointTruncatesAndFilters(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.AppendBatch(0, 0, false, []packet.AFR{{Key: key(1), Attr: 1, Seq: 0}}); err != nil {
		t.Fatal(err)
	}
	want := &wire.Snapshot{
		LastFinished: 0, HasFinished: true,
		Live:    []wire.SnapLive{{SW: 0}},
		Columns: []wire.SnapColumn{{SW: 0, Cells: []packet.AFR{{Key: key(1), Attr: 1}}}},
	}
	if err := s.Checkpoint(want); err != nil {
		t.Fatal(err)
	}
	if want.ThroughLSN != 1 {
		t.Fatalf("ThroughLSN = %d, want 1", want.ThroughLSN)
	}

	snap, recs, err := s.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if snap == nil || !reflect.DeepEqual(snap, want) {
		t.Fatalf("checkpoint mismatch:\nin:  %+v\nout: %+v", want, snap)
	}
	if len(recs) != 0 {
		t.Fatalf("logs not truncated: %d stale records", len(recs))
	}

	// Frames after the checkpoint replay normally.
	if err := s.AppendFinish(1); err != nil {
		t.Fatal(err)
	}
	_, recs, err = s.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Type != wire.WALFinish {
		t.Fatalf("post-checkpoint replay: %+v", recs)
	}
}

// TestStoreCrashPoints drives every simulated crash point and checks the
// recovery invariants: a torn WAL frame is dropped cleanly, a torn temp
// checkpoint never replaces the real one, and a crash between checkpoint
// rename and log truncation leaves stale frames that LSN filtering skips.
func TestStoreCrashPoints(t *testing.T) {
	t.Run("wal-append", func(t *testing.T) {
		dir := t.TempDir()
		s, _ := OpenStore(dir, 0, Options{})
		if err := s.AppendTrigger(0, 2); err != nil {
			t.Fatal(err)
		}
		s.SetCrash(func(p string) bool { return p == "wal-append" })
		first := s.AppendFinish(0)
		if !errors.Is(first, ErrCrash) {
			t.Fatalf("err = %v, want ErrCrash", first)
		}
		// The dead store refuses further writes with the same stable error.
		if second := s.AppendFinish(0); !errors.Is(second, ErrCrash) || second.Error() != first.Error() {
			t.Fatalf("post-crash append: %v, want stable %v", second, first)
		}
		s2, err := OpenStore(dir, 0, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer s2.Close()
		_, recs, err := s2.Recover()
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 1 || recs[0].Type != wire.WALTrigger {
			t.Fatalf("torn tail not dropped: %+v", recs)
		}
		// New frames append after the torn bytes; replay still stops at
		// the tear, so the LSN counter resumed from the last good frame.
		if s2.LSN() != 1 {
			t.Fatalf("LSN = %d, want 1", s2.LSN())
		}
	})

	t.Run("checkpoint-temp", func(t *testing.T) {
		dir := t.TempDir()
		s, _ := OpenStore(dir, 0, Options{})
		s.AppendTrigger(0, 2)
		s.SetCrash(func(p string) bool { return p == "checkpoint-temp" })
		if err := s.Checkpoint(&wire.Snapshot{}); !errors.Is(err, ErrCrash) {
			t.Fatalf("err = %v, want ErrCrash", err)
		}
		s2, err := OpenStore(dir, 0, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer s2.Close()
		snap, recs, err := s2.Recover()
		if err != nil {
			t.Fatal(err)
		}
		if snap != nil {
			t.Fatalf("torn temp file became a checkpoint: %+v", snap)
		}
		if len(recs) != 1 {
			t.Fatalf("WAL lost: %+v", recs)
		}
	})

	t.Run("checkpoint-rename", func(t *testing.T) {
		dir := t.TempDir()
		s, _ := OpenStore(dir, 0, Options{})
		s.AppendTrigger(0, 2)
		s.SetCrash(func(p string) bool { return p == "checkpoint-rename" })
		if err := s.Checkpoint(&wire.Snapshot{}); !errors.Is(err, ErrCrash) {
			t.Fatalf("err = %v, want ErrCrash", err)
		}
		s2, err := OpenStore(dir, 0, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer s2.Close()
		snap, recs, _ := s2.Recover()
		if snap != nil || len(recs) != 1 {
			t.Fatalf("recover after rename crash: snap=%+v recs=%+v", snap, recs)
		}
	})

	t.Run("wal-truncate", func(t *testing.T) {
		dir := t.TempDir()
		s, _ := OpenStore(dir, 0, Options{})
		s.AppendTrigger(0, 2)
		s.SetCrash(func(p string) bool { return p == "wal-truncate" })
		if err := s.Checkpoint(&wire.Snapshot{}); !errors.Is(err, ErrCrash) {
			t.Fatalf("err = %v, want ErrCrash", err)
		}
		s2, err := OpenStore(dir, 0, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer s2.Close()
		snap, recs, err := s2.Recover()
		if err != nil {
			t.Fatal(err)
		}
		if snap == nil || snap.ThroughLSN != 1 {
			t.Fatalf("checkpoint missing after rename: %+v", snap)
		}
		// The stale pre-checkpoint frame survived on disk but is covered
		// by ThroughLSN — replay must skip it.
		if len(recs) != 0 {
			t.Fatalf("stale frames replayed: %+v", recs)
		}
	})
}

// TestStoreRejectsBadInput: a directory path that names a file is refused.
// The shard argument is not input: any value opens and appends to the same
// log.
func TestStoreRejectsBadInput(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "not-a-dir")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStore(file, 0, Options{}); err == nil {
		t.Fatal("a file opened as a store directory")
	}
	s, err := OpenStore(dir, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for shard := -1; shard <= 7; shard += 4 {
		if err := s.AppendBatch(shard, 0, false, []packet.AFR{{Key: key(shard + 1), Attr: 1}}); err != nil {
			t.Fatalf("shard argument %d: %v", shard, err)
		}
	}
	s.Close()
	s2, err := OpenStore(dir, 5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, recs, err := s2.Recover(); err != nil || len(recs) != 3 {
		t.Fatalf("reopened under another shard argument: %d frames, %v; want 3", len(recs), err)
	}
}

// A corrupt checkpoint is quarantined (renamed aside) and recovery
// proceeds from the WAL alone, never half-loading or silently merging the
// torn snapshot. The boundary scrub reports the same rot while the store
// is live.
func TestStoreQuarantinesCorruptCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s, _ := OpenStore(dir, 0, Options{})
	if err := s.Checkpoint(&wire.Snapshot{HasFinished: true, LastFinished: 7}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, checkpointName)
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)/2] ^= 0x20
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if corrupt, err := s.Scrub(); corrupt != 1 || err != nil {
		t.Fatalf("scrub of a rotted checkpoint: corrupt=%d err=%v, want 1", corrupt, err)
	}
	s.Close()
	// The scrub set the checkpoint aside; put the rotted copy back so the
	// recovery-time loader meets it too.
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenStore(dir, 0, Options{})
	if err != nil {
		t.Fatalf("corrupt checkpoint aborted recovery: %v", err)
	}
	defer s2.Close()
	snap, recs, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if snap != nil {
		t.Fatalf("corrupt checkpoint loaded: %+v", snap)
	}
	if len(recs) != 0 {
		t.Fatalf("unexpected replay records: %+v", recs)
	}
	if got := s2.Quarantined(); got == 0 {
		t.Fatal("quarantine not recorded")
	}
	if _, err := os.Stat(path + quarantineSuffix); err != nil {
		t.Fatalf("checkpoint not renamed aside: %v", err)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("corrupt checkpoint still in place: %v", err)
	}
}

func TestLease(t *testing.T) {
	l := NewLease(100)
	if !l.Expired(0) {
		t.Fatal("unheld lease should read as expired")
	}
	l.Renew(50)
	if l.Expired(149) {
		t.Fatal("live lease read as expired")
	}
	if got := l.Remaining(100); got != 50 {
		t.Fatalf("Remaining = %d, want 50", got)
	}
	if !l.Expired(150) {
		t.Fatal("lapsed lease read as live")
	}
	if got := l.Remaining(150); got != 0 {
		t.Fatalf("Remaining after expiry = %d, want 0", got)
	}
	l.Renew(200)
	l.Release()
	if !l.Expired(201) {
		t.Fatal("released lease should read as expired")
	}
}

// The scrub checks the manifest and one cut file per call, taking the cut
// files in turn: rot in any of them, the newest included, is caught within
// as many scrubs as there are live sub-windows, and the next checkpoint
// must carry the rotted file's columns again.
func TestScrubVisitsEveryCut(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var live []wire.SnapLive
	for sw := uint64(0); sw < 4; sw++ {
		live = append(live, wire.SnapLive{SW: sw})
		snap := &wire.Snapshot{LastFinished: sw, HasFinished: true, Live: slices.Clone(live),
			Columns: []wire.SnapColumn{{SW: sw, Cells: []packet.AFR{{Key: key(int(sw)), Attr: 1, SubWindow: sw}}}}}
		if err := s.Checkpoint(snap); err != nil {
			t.Fatal(err)
		}
		live = snap.Live
	}
	if got := s.CutFrom(); got != 4 {
		t.Fatalf("CutFrom = %d after a checkpoint through 3, want 4", got)
	}
	newest := s.cutPath(live[3].Cut)
	buf, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)/2] ^= 0x20
	if err := os.WriteFile(newest, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(live); i++ {
		corrupt, err := s.Scrub()
		if err != nil {
			t.Fatal(err)
		}
		if corrupt == 1 {
			if got := s.CutFrom(); got != 3 {
				t.Fatalf("CutFrom = %d after the cut holding sub-window 3 rotted, want 3", got)
			}
			return
		}
	}
	t.Fatalf("%d scrubs did not reach the newest of %d cut files", len(live), len(live))
}

// A column cut again into a newer file (a standby catching up, the re-cut
// of a rotted file) stays in the older file, which the manifest still
// names for its other columns. Recovery must fold it from the file the
// manifest assigns it to, once.
func TestRecoverFoldsReCutColumnOnce(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	columns := func(sws ...uint64) []wire.SnapColumn {
		var out []wire.SnapColumn
		for _, sw := range sws {
			out = append(out, wire.SnapColumn{SW: sw, Cells: []packet.AFR{{Key: key(0), Attr: 10 + sw, SubWindow: sw}}})
		}
		return out
	}
	first := &wire.Snapshot{LastFinished: 3, HasFinished: true,
		Live:    []wire.SnapLive{{SW: 1}, {SW: 2}, {SW: 3}},
		Columns: columns(1, 2, 3)}
	second := &wire.Snapshot{LastFinished: 4, HasFinished: true,
		Live:    []wire.SnapLive{{SW: 1}, {SW: 2}, {SW: 3}, {SW: 4}},
		Columns: columns(3, 4)}
	for _, snap := range []*wire.Snapshot{first, second} {
		if err := s.Checkpoint(snap); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	s2, err := OpenStore(dir, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	snap, _, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if lost := s2.Lost(); len(lost) != 0 {
		t.Fatalf("Lost = %+v, want none", lost)
	}
	got := slices.Clone(snap.Columns)
	slices.SortFunc(got, func(a, b wire.SnapColumn) int { return int(a.SW) - int(b.SW) })
	if want := columns(1, 2, 3, 4); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered columns %+v, want each live column once: %+v", got, want)
	}
}
