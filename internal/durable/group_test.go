package durable

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"omniwindow/internal/packet"
	"omniwindow/internal/wire"
)

// walOp is one append of a group test: a record batch of n AFRs, or a
// trigger (a control frame) when n is 0.
type walOp struct {
	sw uint64
	n  int
}

// batchAFRs is the deterministic batch op i appends.
func batchAFRs(i, n int) []packet.AFR {
	afrs := make([]packet.AFR, n)
	for j := range afrs {
		afrs[j] = packet.AFR{Key: key(i*1000 + j), Attr: uint64(j + 1), Seq: uint32(i*1000 + j)}
	}
	return afrs
}

// record is op i as the store logs it, LSN i+1 under term 0.
func (op walOp) record(i int) *wire.WALRecord {
	r := &wire.WALRecord{Type: wire.WALTrigger, SubWindow: op.sw, KeyCount: 7, LSN: uint64(i + 1)}
	if op.n > 0 {
		r = &wire.WALRecord{Type: wire.WALAFRBatch, SubWindow: op.sw, AFRs: batchAFRs(i, op.n), LSN: uint64(i + 1)}
	}
	return r
}

func (op walOp) apply(s *Store, i int) error {
	if op.n > 0 {
		return s.AppendBatch(0, op.sw, false, batchAFRs(i, op.n))
	}
	return s.AppendTrigger(op.sw, 7)
}

// perFrameSegments is the log the ops leave when every frame is its own
// write: each segment is its header and frames, sealed after the frame
// that takes it to segBytes.
func perFrameSegments(ops []walOp, segBytes int) [][]byte {
	var segs [][]byte
	var cur []byte
	for i, op := range ops {
		if cur == nil {
			cur = wire.AppendSegmentHeader(nil, &wire.SegmentHeader{Gen: uint64(len(segs) + 1)})
		}
		cur = wire.AppendWALRecord(cur, op.record(i))
		if len(cur) >= segBytes {
			segs, cur = append(segs, cur), nil
		}
	}
	if cur != nil {
		segs = append(segs, cur)
	}
	return segs
}

// TestWALGroupSegmentsMatchPerFrameRotation: grouped writes leave the
// segment files per-frame writes left, byte for byte — header, then the
// frames in LSN order, sealed after the same frame — whether a group ends
// at the 64 KiB bound, at a rotation or at a control frame.
func TestWALGroupSegmentsMatchPerFrameRotation(t *testing.T) {
	batches := func(n, size int, triggerEvery int) []walOp {
		var ops []walOp
		for i := 0; i < n; i++ {
			if triggerEvery > 0 && i%triggerEvery == 0 {
				ops = append(ops, walOp{sw: uint64(i / triggerEvery)})
			}
			ops = append(ops, walOp{sw: uint64(i / 16), n: size})
		}
		return ops
	}
	cases := []struct {
		name     string
		segBytes int
		ops      []walOp
	}{
		{"bound", 1 << 20, batches(200, 128, 0)},
		{"rotation", 10 << 10, batches(60, 40, 0)},
		{"control", 1 << 20, batches(200, 16, 7)},
		{"all", 40 << 10, batches(300, 100, 23)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := OpenStore(dir, 0, Options{SegmentBytes: c.segBytes})
			if err != nil {
				t.Fatal(err)
			}
			for i, op := range c.ops {
				if err := op.apply(s, i); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			want := perFrameSegments(c.ops, c.segBytes)
			files := segFiles(t, dir)
			if len(files) != len(want) {
				t.Fatalf("%d segments, want %d", len(files), len(want))
			}
			for i, name := range files {
				got, err := os.ReadFile(filepath.Join(dir, name))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want[i]) {
					t.Fatalf("segment %s: %d bytes differ from the %d per-frame writes leave", name, len(got), len(want[i]))
				}
			}
		})
	}
}

// tearFS tears one segment write, the first after armed is set that
// carries more than one frame: half of it lands, and the write fails.
type tearFS struct {
	OSFS
	mu    sync.Mutex
	armed bool
	torn  bool
}

func (f *tearFS) Create(name string) (File, error) {
	h, err := f.OSFS.Create(name)
	if err != nil {
		return nil, err
	}
	return &tearFile{File: h, fs: f}, nil
}

type tearFile struct {
	File
	fs *tearFS
}

func (w *tearFile) Write(p []byte) (int, error) {
	w.fs.mu.Lock()
	tear := w.fs.armed && !w.fs.torn && len(p) > wire.SegmentHeaderSize
	if tear {
		_, n, err := wire.DecodeWALRecord(p)
		tear = err == nil && n < len(p)
	}
	w.fs.torn = w.fs.torn || tear
	w.fs.mu.Unlock()
	if !tear {
		return w.File.Write(p)
	}
	n, _ := w.File.Write(p[:len(p)/2])
	return n, errors.New("torn")
}

// lsnsByFile decodes every live segment in dir up to its torn tail.
func lsnsByFile(t *testing.T, dir string) map[string][]uint64 {
	t.Helper()
	out := map[string][]uint64{}
	for _, name := range segFiles(t, dir) {
		for _, r := range frames(t, filepath.Join(dir, name)) {
			out[name] = append(out[name], r.LSN)
		}
	}
	return out
}

// TestWALGroupShortWriteLandsNoLSNTwice: a group write that tears in the
// middle seals the segment behind its whole frames and retries the rest in
// a fresh one, from the first frame the tear did not land whole. No LSN
// reaches disk twice, and recovery keeps every frame.
func TestWALGroupShortWriteLandsNoLSNTwice(t *testing.T) {
	dir := t.TempDir()
	fsys := &tearFS{}
	s, err := OpenStore(dir, 0, Options{FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ops := make([]walOp, 40)
	for i := range ops {
		ops[i] = walOp{sw: 1, n: 64}
	}
	ops[0] = walOp{sw: 1} // a trigger, so the segment is open before the tear
	for i, op := range ops {
		fsys.armed = i > 0
		if err := op.apply(s, i); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if !fsys.torn || s.WALErrors() != 1 {
		t.Fatalf("torn %v, %d WAL errors: the tear did not land in a group write", fsys.torn, s.WALErrors())
	}
	byFile := lsnsByFile(t, dir)
	if len(byFile) != 2 {
		t.Fatalf("segments %v, want the torn one and the retry's", byFile)
	}
	seen := map[uint64]string{}
	for name, lsns := range byFile {
		for _, l := range lsns {
			if prev, ok := seen[l]; ok {
				t.Fatalf("LSN %d landed in %s and %s", l, prev, name)
			}
			seen[l] = name
		}
	}
	files := segFiles(t, dir)
	if torn := byFile[files[0]]; len(torn) < 2 || len(torn) >= len(ops) {
		t.Fatalf("torn segment holds LSNs %v: the tear should land some of the group's frames whole", torn)
	}
	_, recs, err := s.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(ops) || len(s.Lost()) != 0 {
		t.Fatalf("recovered %d frames (lost %v), want all %d", len(recs), s.Lost(), len(ops))
	}
	for i, r := range recs {
		if r.LSN != uint64(i+1) {
			t.Fatalf("frame %d has LSN %d", i, r.LSN)
		}
	}
}

// TestWALGroupCrashLosesTheGroup: a process that dies at the "wal-append"
// crash point never wrote the frames still in its group. The frame being
// appended tears, which leaves a benign torn tail behind the last group
// that landed, and a restart resumes from it with nothing quarantined.
func TestWALGroupCrashLosesTheGroup(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := s.AppendBatch(0, 1, false, batchAFRs(i, 32)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 5; i < 10; i++ {
		if err := s.AppendBatch(0, 1, false, batchAFRs(i, 32)); err != nil {
			t.Fatal(err)
		}
	}
	s.SetCrash(func(p string) bool { return p == "wal-append" })
	if err := s.AppendBatch(0, 1, false, batchAFRs(10, 32)); !errors.Is(err, ErrCrash) {
		t.Fatalf("err = %v, want ErrCrash", err)
	}
	files := segFiles(t, dir)
	if len(files) != 1 {
		t.Fatalf("segments %v, want one", files)
	}
	path := filepath.Join(dir, files[0])
	whole := wire.SegmentHeaderSize
	for i := 0; i < 5; i++ {
		whole += len(wire.AppendWALRecord(nil, walOp{sw: 1, n: 32}.record(i)))
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() <= int64(whole) {
		t.Fatalf("segment of %v bytes, want the %d of the flushed frames and a torn tail (%v)", fi.Size(), whole, err)
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
	if len(recs) != 5 || s2.LSN() != 5 {
		t.Fatalf("recovered %d frames up to LSN %d, want the 5 flushed ones", len(recs), s2.LSN())
	}
	if s2.Quarantined() != 0 || len(s2.Lost()) != 0 {
		t.Fatalf("quarantined %d, lost %v: a torn tail is not damage", s2.Quarantined(), s2.Lost())
	}
}

// TestWALGroupLandsBeforeAControlFrame: a control frame writes the group
// before it reaches its own crash point, so a process that dies appending
// a finish has every batch logged before it on disk.
func TestWALGroupLandsBeforeAControlFrame(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := s.AppendBatch(0, 1, false, batchAFRs(i, 32)); err != nil {
			t.Fatal(err)
		}
	}
	s.SetCrash(func(p string) bool { return p == "wal-append" })
	if err := s.AppendFinish(1); !errors.Is(err, ErrCrash) {
		t.Fatalf("err = %v, want ErrCrash", err)
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
	if len(recs) != 5 || len(s2.Lost()) != 0 {
		t.Fatalf("recovered %d frames (lost %v), want the 5 batches logged before the finish", len(recs), s2.Lost())
	}
}

// TestWALGroupWritesPerBoundary: a boundary of 30 000 records in 128-record
// delivery batches, announced by a trigger and closed by a finish, costs
// one data write per 64 KiB group, plus one per group a rotation cut short
// and one per control frame — not one per batch — and no append leaves a
// full group unwritten. Segment headers are written on their own, one per
// segment.
func TestWALGroupWritesPerBoundary(t *testing.T) {
	dir := t.TempDir()
	fsys := NewFaultFS(OSFS{}, nil)
	s, err := OpenStore(dir, 0, Options{FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const records, batch = 30_000, 128
	if err := s.AppendTrigger(1, records); err != nil {
		t.Fatal(err)
	}
	batches := 0
	for i := 0; i < records; i += batch {
		if err := s.AppendBatch(0, 1, false, batchAFRs(i, min(batch, records-i))); err != nil {
			t.Fatal(err)
		}
		if len(s.group) >= groupBytes {
			t.Fatalf("an append left %d B in the group: it must land at %d", len(s.group), groupBytes)
		}
		batches++
	}
	if err := s.AppendFinish(1); err != nil {
		t.Fatal(err)
	}
	const controls = 2
	rotations := int(s.Rotations())
	files := segFiles(t, dir)
	var frameBytes int
	for _, name := range files {
		fi, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		frameBytes += int(fi.Size()) - wire.SegmentHeaderSize
	}
	writes := int(fsys.Ops()) - len(files)
	bound := (frameBytes+groupBytes-1)/groupBytes + rotations + controls
	if writes > bound {
		t.Fatalf("%d data writes for %d bytes in %d batches over %d segments: want at most %d", writes, frameBytes, batches, len(files), bound)
	}
	if rotations == 0 {
		t.Fatalf("%d bytes did not fill a segment: the rotation is not exercised", frameBytes)
	}
	t.Logf("%d batches, %d bytes: %d data writes in %d segments", batches, frameBytes, writes, len(files))
}

// TestScrubWarmAllocatesNoReadBuffer: the scrub reads every file into the
// store's one read buffer, so a warm scrub of a sealed 256 KiB segment
// allocates only the file handles — no read buffer.
func TestScrubWarmAllocatesNoReadBuffer(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	s, err := OpenStore(t.TempDir(), 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; s.Rotations() == 0; i++ {
		if err := s.AppendBatch(0, 1, false, batchAFRs(i, 128)); err != nil {
			t.Fatal(err)
		}
	}
	if len(s.segs) != 1 || s.segs[0].size < defaultSegmentBytes {
		t.Fatalf("segments %+v, want the one sealed 256 KiB segment", s.segs)
	}
	scrub := func() {
		s.scrubbed = 0 // verify the sealed segment at every run
		if corrupt, err := s.Scrub(); corrupt != 0 || err != nil {
			t.Fatalf("clean scrub: corrupt=%d err=%v", corrupt, err)
		}
	}
	scrub()
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		scrub()
	}
	runtime.ReadMemStats(&after)
	if perOp := (after.TotalAlloc - before.TotalAlloc) / runs; perOp >= 1<<10 {
		t.Fatalf("a warm Scrub allocates %d B/op, want < 1 KiB: it reads into a fresh buffer", perOp)
	}
}

// TestScrubKeepsNoBufferPastTheSegmentCap: a column record a heal
// re-logs can make a segment far larger than the cap. The scrub reads it,
// but the buffer it keeps stays bounded by the segment cap.
func TestScrubKeepsNoBufferPastTheSegmentCap(t *testing.T) {
	const segBytes = 16 << 10
	s, err := OpenStore(t.TempDir(), 0, Options{SegmentBytes: segBytes})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	col := wire.SnapColumn{SW: 0, Cells: batchAFRs(0, 20_000)}
	if err := s.Heal(&wire.Snapshot{HasFinished: true, Live: []uint64{0}, Columns: []wire.SnapColumn{col}}); err != nil {
		t.Fatal(err)
	}
	if len(s.segs) != 1 || s.segs[0].size <= segBytes+groupBytes {
		t.Fatalf("segments %+v, want one holding the column, past the cap and a group", s.segs)
	}
	if corrupt, err := s.Scrub(); corrupt != 0 || err != nil {
		t.Fatalf("clean scrub: corrupt=%d err=%v", corrupt, err)
	}
	if n := cap(s.rbuf); n > segBytes+groupBytes {
		t.Fatalf("the scrub kept a %d B read buffer, past the %d B segment cap and a group", n, segBytes)
	}
}
