package durable

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"omniwindow/internal/faults"
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
	if err := s.Append(&wire.WALRecord{Type: wire.WALShed, SubWindow: 1, Count: 4}); err != nil {
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
		Live:    []uint64{0},
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

// The scrub checks the manifest and every segment sealed since the last
// scrub: rot in any of them, not only the newest, is caught by the first
// scrub after it seals, the next checkpoint must re-log the rotted
// segment's live columns, and a segment once verified is not read again.
func TestScrubVisitsEverySegment(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var live []uint64
	for sw := uint64(0); sw < 4; sw++ {
		if err := s.AppendBatch(0, sw, false, []packet.AFR{{Key: key(int(sw)), Attr: 1, SubWindow: sw}}); err != nil {
			t.Fatal(err)
		}
		if err := s.AppendFinish(sw); err != nil {
			t.Fatal(err)
		}
		live = append(live, sw)
		if err := s.Checkpoint(&wire.Snapshot{LastFinished: sw, HasFinished: true, Live: slices.Clone(live)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.CutFrom(); got != noCut {
		t.Fatalf("CutFrom = %d with the whole log intact, want none", got)
	}
	files := segFiles(t, dir)
	if len(files) != len(live) {
		t.Fatalf("segments %v, want one per live sub-window", files)
	}
	rotted := filepath.Join(dir, files[1])
	buf, err := os.ReadFile(rotted)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)-3] ^= 0x20
	if err := os.WriteFile(rotted, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if corrupt, err := s.Scrub(); corrupt != 1 || err != nil {
		t.Fatalf("first scrub: corrupt=%d err=%v, want the rotted segment", corrupt, err)
	}
	if got := s.CutFrom(); got != 1 {
		t.Fatalf("CutFrom = %d after the segment holding sub-window 1 rotted, want 1", got)
	}
	if err := os.WriteFile(filepath.Join(dir, files[2]), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if corrupt, err := s.Scrub(); corrupt != 0 || err != nil {
		t.Fatalf("second scrub: corrupt=%d err=%v, want no segment read again", corrupt, err)
	}
}

// A record the log lost while its sub-window was pending — an append a
// full disk failed before a heal, or one in a segment the scrub set aside
// — survives only in the next manifest's pending list, so the sub-window's
// column is re-logged when it finishes. A store reopened in between cannot
// tell from disk whether the log lost records, and must re-log it all the
// same: the reopening after the finish folds the column whole.
func TestCrashAfterHealOrScrubReLogsPendingColumns(t *testing.T) {
	a := packet.AFR{Key: key(1), Attr: 1, Seq: 1, SubWindow: 1}
	b := packet.AFR{Key: key(2), Attr: 2, Seq: 2, SubWindow: 1}
	col0 := []wire.SnapColumn{{SW: 0, Cells: []packet.AFR{{Key: key(0), Attr: 1, SubWindow: 0}}}}
	lose := map[string]func(t *testing.T, s *Store, full *faults.DiskSchedule, snap *wire.Snapshot){
		"heal": func(t *testing.T, s *Store, full *faults.DiskSchedule, snap *wire.Snapshot) {
			full.ENOSPC.Fixed = []uint64{s.FSOps()}
			if err := s.AppendBatch(0, 1, false, []packet.AFR{b}); err != nil {
				t.Fatal(err)
			}
			if err := s.Flush(); !errors.Is(err, faults.ErrDiskENOSPC) {
				t.Fatalf("group write on a full disk: %v", err)
			}
			if err := s.Heal(snap); err != nil {
				t.Fatal(err)
			}
		},
		"scrub": func(t *testing.T, s *Store, _ *faults.DiskSchedule, snap *wire.Snapshot) {
			if err := s.AppendBatch(0, 1, false, []packet.AFR{b}); err != nil {
				t.Fatal(err)
			}
			buf, err := os.ReadFile(s.path)
			if err != nil {
				t.Fatal(err)
			}
			buf[len(buf)-3] ^= 0x20
			if err := os.WriteFile(s.path, buf, 0o644); err != nil {
				t.Fatal(err)
			}
			if corrupt, err := s.Scrub(); corrupt != 1 || err != nil {
				t.Fatalf("scrub: corrupt=%d err=%v, want the rotted segment", corrupt, err)
			}
			if err := s.Checkpoint(snap); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, lose := range lose {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			full := &faults.DiskSchedule{}
			opts := Options{FS: NewFaultFS(OSFS{}, full)}
			s, err := OpenStore(dir, 0, opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.AppendBatch(0, 0, false, col0[0].Cells); err != nil {
				t.Fatal(err)
			}
			if err := s.AppendFinish(0); err != nil {
				t.Fatal(err)
			}
			if err := s.Checkpoint(&wire.Snapshot{LastFinished: 0, HasFinished: true, Live: []uint64{0}}); err != nil {
				t.Fatal(err)
			}
			if err := s.AppendBatch(0, 1, false, []packet.AFR{a}); err != nil {
				t.Fatal(err)
			}
			lose(t, s, full, &wire.Snapshot{LastFinished: 0, HasFinished: true, Live: []uint64{0}, Columns: col0, Pending: []packet.AFR{a, b}})
			s.Close()

			s2, err := OpenStore(dir, 0, opts)
			if err != nil {
				t.Fatal(err)
			}
			if got := s2.CutFrom(); got != 1 {
				t.Fatalf("reopened CutFrom = %d, want 1: sub-window 1 was pending when the log lost records", got)
			}
			if err := s2.AppendFinish(1); err != nil {
				t.Fatal(err)
			}
			col1 := wire.SnapColumn{SW: 1, Cells: []packet.AFR{a, b}}
			for i := range col1.Cells {
				col1.Cells[i].Seq = 0 // a column's cells carry no sequence number
			}
			if err := s2.Checkpoint(&wire.Snapshot{LastFinished: 1, HasFinished: true, Live: []uint64{0, 1}, Columns: []wire.SnapColumn{col1}}); err != nil {
				t.Fatal(err)
			}
			s2.Close()

			s3, err := OpenStore(dir, 0, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer s3.Close()
			snap, _, err := s3.Recover()
			if err != nil {
				t.Fatal(err)
			}
			if lost := s3.Lost(); len(lost) > 0 {
				t.Fatalf("lost %+v, want sub-window 1 folded from its re-logged column", lost)
			}
			i := slices.IndexFunc(snap.Columns, func(c wire.SnapColumn) bool { return c.SW == 1 })
			if i < 0 || !reflect.DeepEqual(snap.Columns[i], col1) {
				t.Fatalf("recovered columns %+v, want %+v", snap.Columns, col1)
			}
		})
	}
}

// A column re-logged as a column record (a heal, the re-cut of a rotted
// segment) can sit in the log beside the frames it supersedes. Recovery
// must fold it from its newest record, once.
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
	for sw := uint64(1); sw <= 3; sw++ {
		if err := s.AppendBatch(0, sw, false, []packet.AFR{{Key: key(0), Attr: sw, SubWindow: sw}}); err != nil {
			t.Fatal(err)
		}
		if err := s.AppendFinish(sw); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint(&wire.Snapshot{LastFinished: 3, HasFinished: true, Live: []uint64{1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	// A new writer heals, re-logging every live column; it dies before
	// deleting the segments its column records supersede.
	term, err := s.CASTerm(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AdoptTerm(term); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendFinish(4); err != nil {
		t.Fatal(err)
	}
	s.SetCrash(func(p string) bool { return p == "wal-truncate" })
	second := &wire.Snapshot{LastFinished: 4, HasFinished: true, Live: []uint64{1, 2, 3, 4}, Columns: columns(1, 2, 3, 4)}
	if err := s.Heal(second); !errors.Is(err, ErrCrash) {
		t.Fatalf("heal: %v, want the crash", err)
	}

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
	if want := columns(1, 2, 3, 4); !reflect.DeepEqual(snap.Columns, want) {
		t.Fatalf("recovered columns %+v, want each live column once, from its column record: %+v", snap.Columns, want)
	}
}

// A quarantined segment that held a live column's frames loses exactly
// the columns whose records it may have held: those started at or before
// it and closed at or after it. Each is a LostLSNRange of its own and
// leaves the live list; every other column is folded whole.
func TestRecoverChargesColumnsOfQuarantinedSegment(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var live []uint64
	for sw := uint64(1); sw <= 3; sw++ {
		if err := s.AppendTrigger(sw, 1); err != nil {
			t.Fatal(err)
		}
		if err := s.AppendBatch(0, sw, false, []packet.AFR{{Key: key(int(sw)), Attr: sw, SubWindow: sw}}); err != nil {
			t.Fatal(err)
		}
		if err := s.AppendFinish(sw); err != nil {
			t.Fatal(err)
		}
		live = append(live, sw)
		if err := s.Checkpoint(&wire.Snapshot{LastFinished: sw, HasFinished: true, Live: slices.Clone(live)}); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	files := segFiles(t, dir)
	if len(files) != 3 {
		t.Fatalf("segments %v, want one per boundary", files)
	}
	rotted := filepath.Join(dir, files[1]) // sub-window 2's trigger, batch and finish
	buf, err := os.ReadFile(rotted)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)-1] ^= 0x40
	if err := os.WriteFile(rotted, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenStore(dir, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	snap, recs, err := s2.Recover()
	if err != nil || len(recs) != 0 {
		t.Fatalf("recover: %d frames past the checkpoint, err %v", len(recs), err)
	}
	if lost := s2.Lost(); !reflect.DeepEqual(lost, []LostLSNRange{{SWLow: 2, SWHigh: 2}}) {
		t.Fatalf("Lost = %+v, want sub-window 2's column alone", lost)
	}
	want := []wire.SnapColumn{
		{SW: 1, Cells: []packet.AFR{{Key: key(1), Attr: 1, SubWindow: 1}}},
		{SW: 3, Cells: []packet.AFR{{Key: key(3), Attr: 3, SubWindow: 3}}},
	}
	if !slices.Equal(snap.Live, []uint64{1, 3}) || !reflect.DeepEqual(snap.Columns, want) {
		t.Fatalf("recovered live %v columns %+v, want 1 and 3 whole", snap.Live, snap.Columns)
	}
	if s2.CutFrom() != 0 {
		t.Fatalf("CutFrom = %d after a damaged recovery, want 0: the next checkpoint re-logs every live column", s2.CutFrom())
	}
}
