package omniwindow

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"omniwindow/internal/controller"
	"omniwindow/internal/durable"
	"omniwindow/internal/faults"
	"omniwindow/internal/packet"
	"omniwindow/internal/window"
	"omniwindow/internal/wire"
)

// Checkpoints end to end: what a boundary writes, and what a restart
// reads back, through the deployment's own boundary path.

// spyFS is the real filesystem with per-file-class faults and a write
// tally, for faults a per-operation DiskSchedule cannot aim at one file.
// Once the first checkpoint has landed (the rename onto checkpoint.snap)
// it fails every read of a path containing readEIO and flips one byte of
// the first frame or whole file written to a path containing rot. ckpts
// holds what each boundary wrote, closed by its checkpoint's rename, and
// wal the bytes of each WAL segment as the store deleted it.
type spyFS struct {
	durable.OSFS
	readEIO, rot string

	mu        sync.Mutex
	armed     bool
	rotted    bool
	readFails int
	open      boundaryWrites // since the last checkpoint rename
	ckpts     []boundaryWrites
	wal       map[string][]byte
}

// boundaryWrites is what one boundary wrote: whole-file bytes (the
// manifest), log frame bytes, and the AFRs and column records in those
// frames.
type boundaryWrites struct {
	whole, frames int64
	afrs, columns int
}

func (f *spyFS) ReadFile(name string, buf []byte) ([]byte, error) {
	f.mu.Lock()
	fail := f.armed && f.readEIO != "" && strings.Contains(filepath.Base(name), f.readEIO)
	if fail {
		f.readFails++
	}
	f.mu.Unlock()
	if fail {
		return buf[:0], fmt.Errorf("read %s: %w", name, faults.ErrDiskEIO)
	}
	return f.OSFS.ReadFile(name, buf)
}

func (f *spyFS) WriteFile(name string, data []byte, perm os.FileMode) error {
	f.mu.Lock()
	f.open.whole += int64(len(data))
	data = f.rotLocked(filepath.Base(name), data)
	f.mu.Unlock()
	return f.OSFS.WriteFile(name, data, perm)
}

// rotLocked returns p with one byte flipped if it is the first write to a
// rot file since the file system armed, p itself otherwise.
func (f *spyFS) rotLocked(name string, p []byte) []byte {
	if !f.armed || f.rotted || f.rot == "" || !strings.Contains(name, f.rot) {
		return p
	}
	f.rotted = true
	p = append([]byte(nil), p...)
	p[len(p)/2] ^= 0x10
	return p
}

func (f *spyFS) Rename(oldpath, newpath string) error {
	err := f.OSFS.Rename(oldpath, newpath)
	if err == nil && filepath.Base(newpath) == "checkpoint.snap" {
		f.mu.Lock()
		f.armed = true
		f.ckpts = append(f.ckpts, f.open)
		f.open = boundaryWrites{}
		f.mu.Unlock()
	}
	return err
}

func (f *spyFS) Remove(name string) error {
	if base := filepath.Base(name); strings.HasPrefix(base, "wal-") {
		if b, err := f.OSFS.ReadFile(name, nil); err == nil {
			f.mu.Lock()
			if f.wal == nil {
				f.wal = make(map[string][]byte)
			}
			f.wal[base] = b
			f.mu.Unlock()
		}
	}
	return f.OSFS.Remove(name)
}

func (f *spyFS) Create(name string) (durable.File, error) {
	h, err := f.OSFS.Create(name)
	if err != nil {
		return nil, err
	}
	return &spyFile{File: h, fs: f, name: filepath.Base(name)}, nil
}

type spyFile struct {
	durable.File
	fs   *spyFS
	name string
	off  int64
}

// Write tallies each frame of a write (one frame, or a write group of
// them) and rots the first write (never the segment header) once the file
// system is armed.
func (w *spyFile) Write(p []byte) (int, error) {
	if w.off > 0 {
		w.fs.mu.Lock()
		for rest := p; len(rest) > 0; {
			rec, n, err := wire.DecodeWALRecord(rest)
			if err != nil {
				break
			}
			w.fs.open.frames += int64(n)
			if rec.Type == wire.WALAFRBatch {
				w.fs.open.afrs += len(rec.AFRs)
			}
			if rec.Type == wire.WALColumn {
				w.fs.open.columns++
			}
			rest = rest[n:]
		}
		p = w.fs.rotLocked(w.name, p)
		w.fs.mu.Unlock()
	}
	n, err := w.File.Write(p)
	w.off += int64(n)
	return n, err
}

// readManifest decodes the checkpoint manifest in dir, nil when there is
// none.
func readManifest(t *testing.T, dir string) *wire.Snapshot {
	t.Helper()
	buf, err := os.ReadFile(filepath.Join(dir, "checkpoint.snap"))
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		t.Fatal(err)
	}
	snap, err := wire.DecodeSnapshot(buf)
	if err != nil {
		t.Fatalf("checkpoint does not decode: %v", err)
	}
	return snap
}

// checkpointedThrough reads the newest sub-window the checkpoint in dir
// covers: the windows a restart re-emits start after it.
func checkpointedThrough(t *testing.T, dir string) (uint64, bool) {
	t.Helper()
	if m := readManifest(t, dir); m != nil {
		return m.LastFinished, m.HasFinished
	}
	return 0, false
}

// stitch is the window sequence a crash-restart delivers: the first
// incarnation's windows the checkpoint manifest covers, then everything the
// second emitted (its WAL replay first).
func stitch(pre []controller.WindowResult, manifest *wire.Snapshot, post []controller.WindowResult) []controller.WindowResult {
	var out []controller.WindowResult
	for _, w := range pre {
		if manifest != nil && manifest.HasFinished && w.End <= manifest.LastFinished {
			out = append(out, w)
		}
	}
	return append(out, post...)
}

// TestScrubReadErrorStillReCovers: one Scrub pass both quarantines the
// rotted active segment and fails to read the manifest. The quarantined
// records live only in memory now; the boundary's checkpoint must still
// re-cover them, so a crash right after it restarts byte-identical.
func TestScrubReadErrorStillReCovers(t *testing.T) {
	baseline := runChaos(t, nil)
	spy := &spyFS{readEIO: "checkpoint.snap", rot: "wal-"}
	r := crashCase{
		config: func(dir string) Config {
			cfg := diskConfig(dir, nil, nil)
			cfg.plan.durable.FS = spy
			return cfg
		},
		b:       1,                                      // the spy arms at boundary 0's checkpoint and rots boundary 1's first frame
		between: func(*Deployment) { spy.readEIO = "" }, // the restart reads a healthy disk
	}.run(t)
	if !spy.rotted || spy.readFails == 0 || r.d1.store.Quarantined() == 0 {
		t.Fatalf("faults did not land in one scrub: rotted=%v readFails=%d quarantined=%d",
			spy.rotted, spy.readFails, r.d1.store.Quarantined())
	}
	if !reflect.DeepEqual(baseline.Results(), r.stitched) {
		t.Fatalf("restart after a scrub with corruption and a read error is not exact:\nuncrashed: %+v\nstitched:  %+v",
			baseline.Results(), r.stitched)
	}
}

// cutConfig is the Sliding(5,1) deployment the checkpoint tests share, its
// log cut into 1 KiB segments: a boundary's frames span several, so most
// are sealed before the boundary's scrub reads the active one.
func cutConfig(dir string) Config {
	cfg := freqConfig(window.SlidingPlan(5, 1), 25, false)
	cfg.Shards, cfg.CheckpointDir, cfg.plan.durable.SegmentBytes = 2, dir, 1024
	return cfg
}

// TestRottedSegmentIsReCut: bit rot in a sealed WAL segment a live column
// still needs is caught by the scrub within a few boundaries, and the next
// checkpoint re-logs the rotted segment's columns from the live state as
// column records — no degraded stretch, no heal, and a later crash
// restarts byte-identical.
func TestRottedSegmentIsReCut(t *testing.T) {
	const subWindows = 8
	pkts := cutTrace(subWindows)
	dur := int64(subWindows) * 100 * ms
	config := cutConfig
	baseline := newDisk(t, config(t.TempDir()))
	baseline.RunFor(pkts, dur)

	spy := &spyFS{rot: "wal-"}
	var ckpts []boundaryWrites // the first incarnation's; the restart writes through the spy too
	r := crashCase{
		config: func(dir string) Config {
			cfg := config(dir)
			cfg.plan.durable.FS = spy
			return cfg
		},
		pkts: pkts, dur: dur, b: 6,
		between: func(*Deployment) { ckpts = spy.ckpts },
	}.run(t)
	st := r.d1.Stats()
	if !spy.rotted || r.d1.store.Quarantined() != 1 || st.DurabilityGaps != 0 || st.DurabilityHeals != 0 {
		t.Fatalf("rotted segment: rotted=%v quarantined=%d gaps=%d heals=%d, want one quarantine and no degraded stretch",
			spy.rotted, r.d1.store.Quarantined(), st.DurabilityGaps, st.DurabilityHeals)
	}
	if relogged := slices.ContainsFunc(ckpts, func(w boundaryWrites) bool { return w.columns > 0 }); !relogged {
		t.Fatal("no checkpoint re-logged a column after the rot")
	}
	if !reflect.DeepEqual(baseline.Results(), r.stitched) {
		t.Fatalf("restart after a re-cut is not exact:\nuncrashed: %+v\nstitched:  %+v", baseline.Results(), r.stitched)
	}
}

// churnTrace gives every sub-window its own flows, as flow_churn's trace
// does: each finished sub-window adds a column no other one shares.
func churnTrace(subWindows, flows int) []packet.Packet {
	var pkts []packet.Packet
	for s := 0; s < subWindows; s++ {
		at := int64(s)*100*ms + 10*ms
		for f := 0; f < flows; f++ {
			for i := 0; i < 2+f%3; i++ {
				pkts = append(pkts, packet.Packet{
					Key: fk(1 + s*flows + f), Size: 100, Seq: uint32(i), Time: at + int64(f*80+i)*1000,
				})
			}
		}
	}
	return pkts
}

// TestCheckpointBytesPerBoundary: each AFR reaches disk once. A
// steady-state boundary writes its own frames — one AFR record per AFR it
// delivered, no column re-encoded — and the manifest, which holds no
// column either.
func TestCheckpointBytesPerBoundary(t *testing.T) {
	const subWindows = 12
	cfg := freqConfig(window.SlidingPlan(5, 1), 25, false)
	cfg.CheckpointDir = t.TempDir()
	cfg.Shards = 2
	spy := &spyFS{}
	cfg.plan.durable.FS = spy
	d := newDisk(t, cfg)
	d.RunFor(churnTrace(subWindows, 60), subWindows*100*ms)
	if len(spy.ckpts) != subWindows {
		t.Fatalf("%d checkpoints, want one per boundary (%d)", len(spy.ckpts), subWindows)
	}
	afrs := 0
	for i, w := range spy.ckpts {
		if w.columns != 0 {
			t.Fatalf("boundary %d re-logged %d columns: a steady-state boundary writes its frames only", i, w.columns)
		}
		afrs += w.afrs
	}
	if st := d.Stats(); afrs != st.AFRs {
		t.Fatalf("the log holds %d AFR records for %d AFRs delivered: each must reach disk once", afrs, st.AFRs)
	}
	last := spy.ckpts[len(spy.ckpts)-1]
	manifest := len(wire.EncodeSnapshot(nil, d.Controller().ExportState()))
	if last.whole != int64(manifest) {
		t.Fatalf("the last boundary wrote %d whole-file bytes, want its %d-byte manifest alone", last.whole, manifest)
	}
	if last.afrs == 0 || last.frames == 0 {
		t.Fatalf("the last boundary logged %d AFRs in %d bytes: the trace does not reach it", last.afrs, last.frames)
	}
	if err := d.CloseDurability(); err != nil {
		t.Fatal(err)
	}
}

// TestWALGroupLandsBeforeTheReset: the frames of the AFRs a boundary
// collects wait in the log's write group, and the boundary writes the
// group before its reset zeroes the region. From the reset on the switch
// cannot re-query those records, so they must not be held only in the
// process's memory.
func TestWALGroupLandsBeforeTheReset(t *testing.T) {
	cfg := freqConfig(window.SlidingPlan(5, 1), 25, false)
	cfg.CheckpointDir = t.TempDir()
	cfg.plan.durable.FS = durable.NewFaultFS(nil, nil) // counts operations
	d := newDisk(t, cfg)
	pkts := churnTrace(2, 60)
	for i := 0; len(d.pending) == 0; i++ {
		d.ProcessPacket(&pkts[i])
	}
	cr := d.pending[0]
	d.pending = d.pending[1:]
	b := boundary{d: d, sw: cr.sw, at: cr.due}
	b.begin()
	b.enumerate()
	b.probeStandby()
	b.recover()
	ops := d.store.FSOps()
	b.reset()
	if d.store.FSOps() == ops {
		t.Fatalf("the reset zeroed the region with the frames of %d AFRs in the write group, unwritten", b.afrs)
	}
	ops = d.store.FSOps()
	if err := d.store.Flush(); err != nil || d.store.FSOps() != ops {
		t.Fatalf("the group still held frames after the reset (flush: %v)", err)
	}
	if err := d.CloseDurability(); err != nil {
		t.Fatal(err)
	}
}

// TestFailoverReLogsNoColumn: a promotion over a healthy disk rebuilds
// its controller from the log, so the log already holds every column the
// new term holder has. Its first checkpoint, like every other one, writes
// no column record — after a crash failover and after a partition
// takeover alike — and the stream stays the fault-free run's.
func TestFailoverReLogsNoColumn(t *testing.T) {
	baseline := partitionBaseline(t, 5)
	for _, tc := range []struct {
		name string
		plan func(*testPlan)
	}{
		{"crash", func(p *testPlan) { p.crash = crashes(2) }},
		{"partition", func(p *testPlan) {
			p.partition = &faults.PartitionSchedule{Cut: faults.Fault{Fixed: []uint64{1, 2}}}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spy := &spyFS{}
			cfg := partitionConfig(t.TempDir(), nil)
			cfg.plan.durable.FS = spy
			tc.plan(&cfg.plan)
			d := runPartition(t, cfg, 5)
			if err := d.CloseDurability(); err != nil {
				t.Fatal(err)
			}
			if st := d.Stats(); st.Failovers != 1 || st.SubWindows != 5 {
				t.Fatalf("failovers=%d sub-windows=%d, want one promotion in a five-sub-window run", st.Failovers, st.SubWindows)
			}
			if len(spy.ckpts) < 4 {
				t.Fatalf("%d checkpoints landed, want the promoted controller's among them", len(spy.ckpts))
			}
			for i, w := range spy.ckpts {
				if w.columns != 0 {
					t.Fatalf("checkpoint %d re-logged %d columns: the promoted controller is the log's fold", i, w.columns)
				}
			}
			if !reflect.DeepEqual(baseline.Results(), d.Results()) {
				t.Fatal("the promotion changed the window stream")
			}
		})
	}
}

// cutTrace is chaosTrace's shape over more sub-windows, with churn: 20
// flows that skip every third sub-window plus 8 fresh ones per
// sub-window, so columns both share rows and add their own.
func cutTrace(subWindows int) []packet.Packet {
	var pkts []packet.Packet
	for s := 0; s < subWindows; s++ {
		at := int64(s)*100*ms + 10*ms
		var flows []int
		for f := 1; f <= 20; f++ {
			if (f+s)%3 != 0 {
				flows = append(flows, f)
			}
		}
		for f := 0; f < 8; f++ {
			flows = append(flows, 100+s*8+f)
		}
		for i, f := range flows {
			for j := 0; j < 2+(f+s)%4; j++ {
				pkts = append(pkts, packet.Packet{
					Key: fk(f), Size: 100, Seq: uint32(j), Time: at + int64(i*200+j)*1000,
				})
			}
		}
	}
	return pkts
}

// storeCrashPoints are every point at which the store can die: a WAL
// append and each step of a checkpoint's write order.
var storeCrashPoints = []string{"wal-append", "checkpoint-temp", "checkpoint-rename", "wal-truncate"}

// TestCheckpointCrashRestartDifferential kills the controller at every
// boundary and the store at every crash point of every boundary, under
// sliding, hopping and tumbling plans, and holds each restart to the
// fault-free run: the stitched windows are byte-identical. Where the
// checkpoint on disk covers the crash boundary, the state restored from
// its manifest and the columns folded from the log must also equal the
// live state restored in one piece.
func TestCheckpointCrashRestartDifferential(t *testing.T) {
	const subWindows = 8
	pkts := cutTrace(subWindows)
	dur := int64(subWindows) * 100 * ms
	plans := []struct {
		name string
		plan window.Plan
	}{
		{"sliding5x1", window.SlidingPlan(5, 1)},
		{"sliding4x2", window.SlidingPlan(4, 2)},
		{"tumbling5", window.Tumbling(5)},
	}
	for _, p := range plans {
		config := func(dir string) Config {
			cfg := freqConfig(p.plan, 25, false)
			cfg.Shards, cfg.CheckpointDir = 2, dir
			return cfg
		}
		t.Run(p.name, func(t *testing.T) {
			baseline := newDisk(t, config(t.TempDir()))
			baseline.RunFor(pkts, dur)
			if len(baseline.Results()) == 0 {
				t.Fatal("baseline produced no windows")
			}
			points := append([]string{""}, storeCrashPoints...)
			fired := map[string]int{}
			for b := uint64(0); b < subWindows; b++ {
				for _, point := range points {
					c := crashCase{config: config, pkts: pkts, dur: dur, b: b, point: point, optional: true}
					if point == "" {
						c.between = func(d1 *Deployment) { assertCheckpointRestores(t, d1) }
					}
					r := c.run(t)
					if !r.fired {
						continue
					}
					fired[point]++
					if !reflect.DeepEqual(baseline.Results(), r.stitched) {
						t.Fatalf("crash at boundary %d (store point %q) not exactly recovered:\nuncrashed: %+v\nstitched:  %+v",
							b, point, baseline.Results(), r.stitched)
					}
				}
			}
			for _, point := range points {
				if fired[point] == 0 {
					t.Errorf("no crash fired at point %q", point)
				}
			}
		})
	}
}

// assertCheckpointRestores restores a controller from the crashed
// deployment's checkpoint (the manifest plus the columns folded from the
// log), which covers the crash boundary, and one from the crashed
// controller's whole state, and compares what they export.
func assertCheckpointRestores(t *testing.T, crashed *Deployment) {
	t.Helper()
	cfg := crashed.cfg
	s, err := durable.OpenStore(cfg.CheckpointDir, 0, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	snap, recs, err := s.Recover()
	s.Close()
	if err != nil || snap == nil || len(recs) != 0 || len(s.Lost()) != 0 {
		t.Fatalf("checkpoint at the crash boundary: snap=%v, %d frames past it, lost %v, err %v",
			snap != nil, len(recs), s.Lost(), err)
	}
	restore := func(snap *wire.Snapshot) *wire.Snapshot {
		c := newController(&cfg)
		c.RestoreState(snap)
		return c.ExportState()
	}
	if got, want := restore(snap), restore(crashed.ctrl.ExportState()); !reflect.DeepEqual(got, want) {
		t.Fatalf("state restored from the checkpoint differs from the live state:\n got: %+v\nwant: %+v", got, want)
	}
}
