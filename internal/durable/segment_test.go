package durable

import (
	"errors"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"omniwindow/internal/faults"
	"omniwindow/internal/packet"
	"omniwindow/internal/wire"
)

// segFiles lists the live (non-quarantined) segment filenames in dir.
func segFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if strings.HasPrefix(n, "wal-") && strings.HasSuffix(n, ".log") {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

func quarantinedFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), quarantineSuffix) {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names
}

func TestSegmentRotationBySize(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, 0, Options{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	const n = 10
	for i := 0; i < n; i++ {
		if err := s.AppendTrigger(uint64(i), uint32(i)); err != nil {
			t.Fatal(err)
		}
	}
	if files := segFiles(t, dir); len(files) < 3 {
		t.Fatalf("size cap did not rotate: %v", files)
	}
	if s.Rotations() == 0 {
		t.Fatal("rotations not counted")
	}

	// Multi-segment replay merges back into issue order.
	_, recs, err := s.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != n {
		t.Fatalf("got %d records, want %d", len(recs), n)
	}
	for i, r := range recs {
		if r.LSN != uint64(i+1) || r.SubWindow != uint64(i) {
			t.Fatalf("record %d: LSN %d SW %d", i, r.LSN, r.SubWindow)
		}
	}
	s.Close()

	// Reopen resumes past every segment.
	s2, err := OpenStore(dir, 0, Options{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.LSN() != n {
		t.Fatalf("reopened LSN = %d, want %d", s2.LSN(), n)
	}
	if len(s2.Lost()) != 0 {
		t.Fatalf("clean reopen reported loss: %+v", s2.Lost())
	}
}

func TestSegmentCadenceRotation(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, 0, Options{SegmentBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.AppendTrigger(0, 1); err != nil {
		t.Fatal(err)
	}
	s.SealBoundary()
	if err := s.AppendTrigger(1, 1); err != nil {
		t.Fatal(err)
	}
	files := segFiles(t, dir)
	if len(files) != 2 {
		t.Fatalf("a boundary seal did not rotate: %v", files)
	}
	_, recs, err := s.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("replay across cadence rotation: %+v", recs)
	}
}

// A CRC-corrupt sealed segment is quarantined whole; its LSNs surface as
// a LostLSNRange bounded by the surviving neighbors, and recovery
// continues through the later segments instead of aborting.
func TestSegmentQuarantineAndLostRange(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, 0, Options{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	const n = 10
	for i := 0; i < n; i++ {
		if err := s.AppendTrigger(uint64(i), 1); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	files := segFiles(t, dir)
	if len(files) < 3 {
		t.Fatalf("need >=3 segments, got %v", files)
	}
	victim := filepath.Join(dir, files[1])
	// Find which LSNs the victim holds before corrupting it.
	victimLSNs := map[uint64]bool{}
	buf, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	for off := wire.SegmentHeaderSize; off < len(buf); {
		rec, sz, derr := wire.DecodeWALRecord(buf[off:])
		if derr != nil {
			t.Fatalf("pre-corruption decode: %v", derr)
		}
		victimLSNs[rec.LSN] = true
		off += sz
	}
	if len(victimLSNs) == 0 {
		t.Fatal("victim segment is empty")
	}
	buf[len(buf)-1] ^= 0x40 // break the last frame's CRC trailer
	if err := os.WriteFile(victim, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenStore(dir, 0, Options{SegmentBytes: 64})
	if err != nil {
		t.Fatalf("corrupt segment aborted recovery: %v", err)
	}
	defer s2.Close()
	if got := quarantinedFiles(t, dir); len(got) != 1 || got[0] != files[1]+quarantineSuffix {
		t.Fatalf("quarantine files: %v", got)
	}
	if s2.Quarantined() != 1 {
		t.Fatalf("Quarantined = %d, want 1", s2.Quarantined())
	}

	_, recs, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	replayed := map[uint64]bool{}
	for _, r := range recs {
		if victimLSNs[r.LSN] {
			t.Fatalf("LSN %d replayed from a quarantined segment", r.LSN)
		}
		replayed[r.LSN] = true
	}
	// Quarantined-vs-recovered accounting must reconcile exactly: every
	// issued LSN is replayed or inside a reported gap, and no gap overlaps
	// a replayed LSN.
	lost := s2.Lost()
	inLost := func(lsn uint64) bool {
		for _, lr := range lost {
			if lsn >= lr.From && lsn <= lr.To {
				return true
			}
		}
		return false
	}
	for lsn := uint64(1); lsn <= n; lsn++ {
		if replayed[lsn] == inLost(lsn) {
			t.Fatalf("LSN %d: replayed=%v inLost=%v — accounting does not reconcile", lsn, replayed[lsn], inLost(lsn))
		}
		if victimLSNs[lsn] && !inLost(lsn) {
			t.Fatalf("quarantined LSN %d not reported lost", lsn)
		}
	}
	// Sub-window bounds must cover the victim's sub-windows (trigger i
	// carries sub-window i, LSN i+1).
	for lsn := range victimLSNs {
		sw := lsn - 1
		covered := false
		for _, lr := range lost {
			if sw >= lr.SWLow && sw <= lr.SWHigh {
				covered = true
			}
		}
		if !covered {
			t.Fatalf("sub-window %d damaged but not covered by %+v", sw, lost)
		}
	}
}

// The scrubber catches bit rot in the active segment while the data is
// still redundant in memory: the segment is quarantined and appends move to
// a fresh generation.
func TestScrubDetectsBitRot(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, 0, Options{SegmentBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 5; i++ {
		if err := s.AppendTrigger(uint64(i), 1); err != nil {
			t.Fatal(err)
		}
	}
	if corrupt, err := s.Scrub(); corrupt != 0 || err != nil {
		t.Fatalf("clean scrub: corrupt=%d err=%v", corrupt, err)
	}

	files := segFiles(t, dir)
	if len(files) != 1 {
		t.Fatalf("want one active segment, got %v", files)
	}
	path := filepath.Join(dir, files[0])
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	buf[wire.SegmentHeaderSize+10] ^= 0x08 // rot a byte inside the first frame
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	corrupt, err := s.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if corrupt != 1 {
		t.Fatalf("scrub missed the rot: corrupt=%d", corrupt)
	}
	if got := quarantinedFiles(t, dir); len(got) != 1 {
		t.Fatalf("rotted segment not quarantined: %v", got)
	}
	// Appends continue on a fresh generation.
	if err := s.AppendTrigger(5, 1); err != nil {
		t.Fatal(err)
	}
	_, recs, err := s.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].LSN != 6 {
		t.Fatalf("post-scrub replay: %+v", recs)
	}
	// The quarantined frames must be reported as a gap.
	if lost := s.Lost(); len(lost) != 1 || lost[0].From != 1 || lost[0].To != 5 {
		t.Fatalf("lost ranges: %+v", lost)
	}
}

// The scrubber verifies every frame of the active segment, not a window of
// recent ones: rot in the oldest frame of a segment full of small trigger
// frames is still caught while the live state covers it.
func TestScrubVerifiesWholeActiveSegment(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, 0, Options{SegmentBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 100; i++ {
		if err := s.AppendTrigger(uint64(i), 1); err != nil {
			t.Fatal(err)
		}
	}
	files := segFiles(t, dir)
	if len(files) != 1 {
		t.Fatalf("want one active segment, got %v", files)
	}
	path := filepath.Join(dir, files[0])
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	buf[wire.SegmentHeaderSize+10] ^= 0x08 // rot a byte inside frame 0
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	corrupt, err := s.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if corrupt != 1 {
		t.Fatalf("scrub missed rot in frame 0 of 100: corrupt=%d", corrupt)
	}
	if got := quarantinedFiles(t, dir); len(got) != 1 || got[0] != files[0]+quarantineSuffix {
		t.Fatalf("rotted segment not quarantined: %v", got)
	}
}

// Transient write faults are retried behind a rotation: every append
// eventually lands, the tears the failed attempts left behind read as
// benign torn tails, and replay comes back complete — no gaps.
func TestAppendRetriesTransientFaults(t *testing.T) {
	dir := t.TempDir()
	sched := &faults.DiskSchedule{Seed: 21, WriteEIO: 0.2, ShortWrite: 0.1}
	fs := NewFaultFS(OSFS{}, sched)
	s, err := OpenStore(dir, 0, Options{FS: fs, SegmentBytes: 256, RetryLimit: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const n = 50
	for i := 0; i < n; i++ {
		if err := s.AppendTrigger(uint64(i), 1); err != nil {
			t.Fatalf("append %d failed despite retries: %v", i, err)
		}
	}
	if s.WALErrors() == 0 {
		t.Fatal("schedule injected no faults — test is vacuous")
	}
	if s.TakeIOWait() == 0 {
		t.Fatal("retry backoff not charged to virtual IO wait")
	}
	_, recs, err := s.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != n {
		t.Fatalf("got %d records, want %d", len(recs), n)
	}
	for i, r := range recs {
		if r.LSN != uint64(i+1) {
			t.Fatalf("record %d has LSN %d", i, r.LSN)
		}
	}
	if lost := s.Lost(); len(lost) != 0 {
		t.Fatalf("survived faults but reported loss: %+v", lost)
	}
}

// ENOSPC is persistent: it must fail fast instead of burning the retry
// budget against a full disk.
func TestENOSPCFailsFast(t *testing.T) {
	dir := t.TempDir()
	sched := &faults.DiskSchedule{Seed: 1, ENOSPC: faults.Fault{Prob: 1}}
	fs := NewFaultFS(OSFS{}, sched)
	s, err := OpenStore(dir, 0, Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	opsBefore := fs.Ops()
	err = s.AppendTrigger(0, 1)
	if !errors.Is(err, faults.ErrDiskENOSPC) {
		t.Fatalf("err = %v, want ErrDiskENOSPC", err)
	}
	if burned := fs.Ops() - opsBefore; burned > 2 {
		t.Fatalf("ENOSPC burned %d ops — retries not short-circuited", burned)
	}
	// The store is NOT dead: a later heal can still succeed once space
	// returns (here it never does, so the append keeps failing).
	if err := s.AppendTrigger(1, 1); !errors.Is(err, faults.ErrDiskENOSPC) {
		t.Fatalf("second append: %v", err)
	}
}

func TestStoreHealRotatesAndCheckpoints(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, 0, Options{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 6; i++ {
		if err := s.AppendBatch(0, uint64(i), false, []packet.AFR{{Key: key(i), Attr: 1}}); err != nil {
			t.Fatal(err)
		}
	}
	snap := &wire.Snapshot{HasFinished: true, LastFinished: 5}
	if err := s.Heal(snap); err != nil {
		t.Fatal(err)
	}
	if snap.ThroughLSN != 6 {
		t.Fatalf("heal checkpoint ThroughLSN = %d, want 6", snap.ThroughLSN)
	}
	if files := segFiles(t, dir); len(files) != 0 {
		t.Fatalf("heal left stale segments: %v", files)
	}
	// Post-heal appends land in fresh generations and replay from the new
	// checkpoint alone.
	if err := s.AppendFinish(6); err != nil {
		t.Fatal(err)
	}
	got, recs, err := s.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if got == nil || got.ThroughLSN != 6 || !got.HasFinished || got.LastFinished != 5 {
		t.Fatalf("post-heal checkpoint: %+v", got)
	}
	if len(recs) != 1 || recs[0].LSN != 7 {
		t.Fatalf("post-heal replay: %+v", recs)
	}
}

// Store death must be exactly-once and stable under concurrent appenders
// and closers (run with -race).
func TestStoreDieRaceHammer(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, 0, Options{SegmentBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	var fired atomic.Int64
	s.SetCrash(func(p string) bool {
		// Crash on the 40th append attempt.
		return p == "wal-append" && fired.Add(1) == 40
	})
	var wg sync.WaitGroup
	errs := make([][]error, 8)
	for g := 0; g < 8; g++ {
		g := g
		errs[g] = make([]error, 30)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				errs[g][i] = s.AppendBatch(0, uint64(i), false, []packet.AFR{{Key: key(i), Attr: 1}})
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.Close()
	}()
	wg.Wait()

	var crashMsg string
	for g := range errs {
		for i, err := range errs[g] {
			if err == nil {
				continue
			}
			if !errors.Is(err, ErrCrash) && !errors.Is(err, ErrClosed) {
				t.Fatalf("goroutine %d append %d: unexpected error %v", g, i, err)
			}
			if errors.Is(err, ErrCrash) {
				if crashMsg == "" {
					crashMsg = err.Error()
				} else if err.Error() != crashMsg {
					t.Fatalf("crash error not stable: %q vs %q", err.Error(), crashMsg)
				}
			}
		}
	}
	// Close after death is a no-op, not a double-close.
	if err := s.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

// The fault-free append path must stay allocation-free at steady state —
// the whole point of the shared encode scratch and the non-escaping retry
// closure.
func TestWALAppendZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	dir := t.TempDir()
	s, err := OpenStore(dir, 0, Options{SegmentBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	afrs := make([]packet.AFR, 8)
	for i := range afrs {
		afrs[i] = packet.AFR{Key: key(i), Attr: uint64(i), Seq: uint32(i)}
	}
	// Prime: first appends open the segment and grow the encode scratch.
	for i := 0; i < 4; i++ {
		if err := s.AppendBatch(0, 0, false, afrs); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := s.AppendBatch(0, 1, false, afrs); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("WAL append allocates %.1f/op, want 0", allocs)
	}
}

// ...and it stays so under rotation: with a 16 KiB segment cap a seal-and-
// rotate lands every ~40 appends, and what it allocates (a file name, a
// handle) must amortise to nothing per append — AllocsPerRun's integer
// average, the same figure -benchmem prints for BenchmarkWALAppendRotating.
func TestWALAppendRotatingZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	s, err := OpenStore(t.TempDir(), 0, Options{SegmentBytes: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	afrs := make([]packet.AFR, 8)
	for i := range afrs {
		afrs[i] = packet.AFR{Key: key(i), Attr: uint64(i), Seq: uint32(i)}
	}
	for i := 0; i < 4; i++ {
		if err := s.AppendBatch(0, 0, false, afrs); err != nil {
			t.Fatal(err)
		}
	}
	before := s.Rotations()
	allocs := testing.AllocsPerRun(2000, func() {
		if err := s.AppendBatch(0, 1, false, afrs); err != nil {
			t.Fatal(err)
		}
	})
	if s.Rotations()-before < 10 {
		t.Fatalf("only %d rotations in 2000 appends: the cap is not being exercised", s.Rotations()-before)
	}
	if allocs != 0 {
		t.Fatalf("rotating WAL append allocates %.1f/op, want 0", allocs)
	}
}

// The boundary scrub checks the manifest's seal and each newly sealed
// segment's frames, it does not decode them: its allocations must not
// grow with the log a checkpoint retains for its live columns (a decode
// allocates a record per frame).
func TestScrubAllocsFlatInCheckpointSize(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	scrubAllocs := func(columns int) float64 {
		s, err := OpenStore(t.TempDir(), 0, Options{SegmentBytes: 1 << 30})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		snap := &wire.Snapshot{HasFinished: true, LastFinished: uint64(columns - 1)}
		for sw := uint64(0); sw < uint64(columns); sw++ {
			snap.Live = append(snap.Live, sw)
			if err := s.AppendBatch(0, sw, false, []packet.AFR{{Key: key(int(sw)), Attr: 1, SubWindow: sw}}); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Checkpoint(snap); err != nil {
			t.Fatal(err)
		}
		if files := segFiles(t, s.dir); len(files) != 1 {
			t.Fatalf("the checkpoint retained %v, want the one sealed segment", files)
		}
		return testing.AllocsPerRun(20, func() {
			s.scrubbed = 0 // verify the sealed segment at every run
			if corrupt, err := s.Scrub(); corrupt != 0 || err != nil {
				t.Fatalf("clean scrub: corrupt=%d err=%v", corrupt, err)
			}
		})
	}
	small, large := scrubAllocs(10), scrubAllocs(1000)
	if large-small > 2 {
		t.Fatalf("Scrub allocates %.0f/op over a 10-column log and %.0f/op over a 1000-column one: it grows with the log", small, large)
	}
}

// A deposed primary discovers its demotion for free: an append under a
// stale term is rejected without allocating.
func TestFencedAppendZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	s, err := OpenStore(t.TempDir(), 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.AppendFinish(0); err != nil {
		t.Fatal(err)
	}
	// Advance the authoritative term without adopting it: this handle is
	// now the zombie.
	if _, err := s.CASTerm(s.Term(), 2); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := s.AppendFinish(1); !errors.Is(err, ErrFenced) {
			t.Fatalf("stale-term append: %v, want ErrFenced", err)
		}
	})
	if allocs != 0 {
		t.Fatalf("fenced append allocates %.1f/op, want 0", allocs)
	}
	if s.FencedWrites() < 200 {
		t.Fatalf("FencedWrites = %d, want >= 200", s.FencedWrites())
	}
}
