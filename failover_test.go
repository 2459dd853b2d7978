package omniwindow

import (
	"cmp"
	"fmt"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	"omniwindow/internal/controller"
	"omniwindow/internal/faults"
	"omniwindow/internal/packet"
	"omniwindow/internal/window"
	"omniwindow/internal/wire"
)

// durableConfig is the chaos deployment with durability enabled.
func durableConfig(dir string, crash *faults.CrashSchedule) Config {
	cfg := freqConfig(window.SlidingPlan(3, 1), 25, false)
	cfg.plan.retry = fastRetry(4)
	cfg.CheckpointDir = dir
	cfg.plan.crash = crash
	return cfg
}

// crashes is a crash schedule that kills the controller at exactly the
// given boundaries.
func crashes(sws ...uint64) *faults.CrashSchedule {
	return &faults.CrashSchedule{Fault: faults.Fault{Fixed: sws}}
}

// traceTail returns the packets of sub-windows strictly after `at` — the
// part of the trace a deployment restarted after a crash at boundary `at`
// must replay. The crash destroys the switch's in-flight region along with
// the controller process, so replay restarts at the sub-window boundary,
// not at the exact crash packet.
func traceTail(pkts []packet.Packet, at uint64) []packet.Packet {
	cut := int64(at+1) * 100 * ms
	var tail []packet.Packet
	for _, p := range pkts {
		if p.Time >= cut {
			tail = append(tail, p)
		}
	}
	return tail
}

// uncommitted is the store crash point the suites use to leave WAL for a
// restart to replay: the store dies writing the boundary checkpoint's
// manifest, after the boundary's frames and its finish landed. Every
// boundary checkpoints, so a controller crash leaves nothing to replay.
const uncommitted = "checkpoint-temp"

// crashCase is one crash and restart on a fresh checkpoint directory. The
// first incarnation runs pkts until it dies at boundary b: the controller
// when point is "" (after the boundary's checkpoint), otherwise the store
// at that point (storeCrashPoints) while b is the last finished
// sub-window. The second recovers from the same directory and runs the
// traffic after the newest finish the durable state holds.
type crashCase struct {
	config func(dir string) Config // both incarnations' config; nil: durableConfig
	pkts   []packet.Packet         // nil: chaosTrace
	dur    int64                   // 0: 500 ms
	b      uint64
	point  string
	// optional says the run may never reach the crash (a boundary that
	// finishes nothing never checkpoints): the case then reports it
	// unfired instead of failing.
	optional bool
	drive    func(d1 *Deployment) // drives the first incarnation; nil: RunFor(pkts, dur)
	between  func(d1 *Deployment) // runs after the crash, before the restart
}

// crashResult is what a crashCase delivered. stitched is the window
// sequence a crash-restart delivers: the first incarnation's windows the
// checkpoint covers, then everything the second emitted, its WAL replay
// first. replayed reports that the crash left WAL frames past the
// checkpoint, which the restart replays. The second incarnation's store is
// closed when the test ends.
type crashResult struct {
	fired    bool
	stitched []controller.WindowResult
	replayed bool
	d1, d2   *Deployment
}

// run carries out the case. It also holds the crash to the WAL it must
// leave: a store death before the manifest commits leaves the boundary's
// frames past the checkpoint, and — once the boundary's finish landed and
// the boundary ends a window — the restart re-emits that window from them;
// a controller death, or a store death after the commit, leaves nothing to
// replay.
func (c crashCase) run(t *testing.T) crashResult {
	t.Helper()
	if c.config == nil {
		c.config = func(dir string) Config { return durableConfig(dir, nil) }
	}
	if c.pkts == nil {
		c.pkts = chaosTrace()
	}
	if c.dur == 0 {
		c.dur = 500 * ms
	}
	dir := t.TempDir()
	cfg := c.config(dir)
	if c.point == "" {
		cfg.plan.crash = crashes(c.b)
	}
	d1 := newDisk(t, cfg)
	if c.point != "" {
		d1.store.SetCrash(func(p string) bool {
			lf, ok := d1.ctrl.LastFinished()
			return p == c.point && ok && lf == c.b
		})
	}
	if c.drive != nil {
		c.drive(d1)
	} else {
		d1.RunFor(c.pkts, c.dur)
	}
	if c.point == "" && (!d1.crashed || d1.crashedAt != c.b) || c.point != "" && !d1.storeDead {
		if !c.optional {
			t.Fatalf("crash at boundary %d (store point %q) did not fire", c.b, c.point)
		}
		return crashResult{}
	}

	manifest := readManifest(t, dir)
	replayed := false
	for _, lsns := range walLSNsByFile(t, dir) {
		for _, l := range lsns {
			replayed = replayed || manifest == nil || l > manifest.ThroughLSN
		}
	}
	replays := c.point != "" && c.point != "wal-truncate"
	if replayed != replays {
		t.Fatalf("crash at boundary %d (store point %q) left WAL past the checkpoint: %v, want %v", c.b, c.point, replayed, replays)
	}
	if c.between != nil {
		c.between(d1)
	}

	d2 := newDisk(t, c.config(dir))
	t.Cleanup(func() { d2.CloseDurability() })
	tail := c.pkts
	if lf, ok := d2.ctrl.LastFinished(); ok {
		tail = traceTail(c.pkts, lf)
	}
	d2.RunFor(tail, c.dur)
	if _, ends := cfg.Plan.Ends(c.b); replays && c.point != "wal-append" && ends && d2.Stats().ReplayedWindows == 0 {
		t.Fatalf("crash at boundary %d (store point %q): the restart re-emitted no window from the WAL", c.b, c.point)
	}
	return crashResult{fired: true, stitched: stitch(d1.Results(), manifest, d2.Results()), replayed: replayed, d1: d1, d2: d2}
}

// walFiles lists the write-ahead log segment files in dir.
func walFiles(t *testing.T, dir string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// TestCrashRestartByteIdenticalEveryBoundary is the tentpole durability
// assertion: kill the controller at EVERY sub-window boundary in turn,
// restart on the same checkpoint directory, replay the trace tail — and
// the stitched window sequence is byte-identical to a run that never
// crashed. Checkpoint restore plus WAL replay is exact recovery, not
// approximation.
func TestCrashRestartByteIdenticalEveryBoundary(t *testing.T) {
	baseline := runChaos(t, nil)
	if len(baseline.Results()) == 0 {
		t.Fatal("baseline produced no windows")
	}
	for at := uint64(0); at <= 4; at++ {
		t.Run(fmt.Sprintf("boundary%d", at), func(t *testing.T) {
			got := crashCase{b: at}.run(t).stitched
			if !reflect.DeepEqual(baseline.Results(), got) {
				t.Fatalf("crash at %d not exactly recovered:\nuncrashed: %+v\nstitched:  %+v",
					at, baseline.Results(), got)
			}
		})
	}
}

// TestCrashRestartReplaysWAL: a store that dies before a boundary's
// checkpoint commits forces real WAL replay — re-ingested batches,
// re-announced triggers and re-run window assemblies — and the result is
// still byte-identical.
func TestCrashRestartReplaysWAL(t *testing.T) {
	baseline := runChaos(t, nil)
	for at := uint64(0); at <= 4; at++ {
		t.Run(fmt.Sprintf("boundary%d", at), func(t *testing.T) {
			got := crashCase{b: at, point: uncommitted}.run(t).stitched
			if !reflect.DeepEqual(baseline.Results(), got) {
				t.Fatalf("crash at %d not exactly recovered from the WAL:\nuncrashed: %+v\nstitched:  %+v",
					at, baseline.Results(), got)
			}
		})
	}
}

// TestCrashRestartAcrossShardCounts: the controller's shard count is not
// part of the on-disk format. A deployment restarted under a different
// Shards value replays the WAL exactly, and its checkpoints keep a segment
// the crashed incarnation wrote only while it holds a live sub-window's
// records.
func TestCrashRestartAcrossShardCounts(t *testing.T) {
	baseline := runChaos(t, nil)
	for _, counts := range [][2]int{{4, 2}, {2, 4}} {
		for _, at := range []uint64{2, 4} {
			t.Run(fmt.Sprintf("shards%d-%d/boundary%d", counts[0], counts[1], at), func(t *testing.T) {
				shards := counts[0]
				r := crashCase{
					config: func(dir string) Config {
						cfg := durableConfig(dir, nil)
						cfg.Shards = shards
						return cfg
					},
					b: at, point: uncommitted,
					between: func(*Deployment) { shards = counts[1] },
				}.run(t)
				if !reflect.DeepEqual(baseline.Results(), r.stitched) {
					t.Fatalf("restart under %d shards after a crash under %d not exact:\nuncrashed: %+v\nstitched:  %+v",
						counts[1], counts[0], baseline.Results(), r.stitched)
				}
				// The trace ends at sub-window 4: close the next one, so
				// that a crash at 4 also sees a checkpoint after the restart.
				r.d2.Finalize()
				if through, ok := checkpointedThrough(t, r.d2.cfg.CheckpointDir); !ok || through <= at {
					t.Fatalf("no checkpoint after the restart: through %d (%v)", through, ok)
				}
				assertWALRetained(t, r.d2.cfg.CheckpointDir)
			})
		}
	}
}

// assertWALRetained fails if a WAL segment in dir holds no record of a
// sub-window the checkpoint there still needs: one live in it, or not
// finished yet.
func assertWALRetained(t *testing.T, dir string) {
	t.Helper()
	m := readManifest(t, dir)
	for path, recs := range walRecordsByFile(t, dir) {
		if !slices.ContainsFunc(recs, func(r *wire.WALRecord) bool {
			return slices.Contains(m.Live, r.SubWindow) || !m.HasFinished || r.SubWindow > m.LastFinished
		}) {
			t.Errorf("%s holds records of retired sub-windows only, past checkpoint %d", filepath.Base(path), m.LastFinished)
		}
	}
}

// TestCheckpointRetainsOnlyLiveWAL pins what the log holds between
// boundaries: once a fault-free boundary's grace has run, its checkpoint
// covers every frame logged so far, and the log holds the frames of live
// sub-windows and nothing else — each segment goes once the last
// sub-window with a record in it retires. So a restart folds every live
// column from the log and replays at most the one boundary in flight.
func TestCheckpointRetainsOnlyLiveWAL(t *testing.T) {
	dir := t.TempDir()
	d := newDisk(t, durableConfig(dir, nil))
	defer d.CloseDurability()
	pkts := chaosTrace()
	next := 0
	for sw := uint64(0); sw < 5; sw++ {
		edge := int64(sw+1) * 100 * ms
		for ; next < len(pkts) && pkts[next].Time < edge; next++ {
			d.ProcessPacket(&pkts[next])
		}
		d.Tick(edge)
		d.Tick(edge + int64(d.cfg.Grace))
		m := readManifest(t, dir)
		if m == nil || !m.HasFinished || m.LastFinished != sw {
			t.Fatalf("after boundary %d the checkpoint is %+v", sw, m)
		}
		held := map[uint64]bool{}
		for path, recs := range walRecordsByFile(t, dir) {
			for _, r := range recs {
				if !slices.Contains(m.Live, r.SubWindow) {
					t.Fatalf("after boundary %d %s holds a frame of sub-window %d, not live in %v", sw, filepath.Base(path), r.SubWindow, m.Live)
				}
				held[r.SubWindow] = true
			}
		}
		for _, l := range m.Live {
			if !held[l] {
				t.Fatalf("after boundary %d live sub-window %d has no frame on disk", sw, l)
			}
		}
	}
}

// TestFailoverStandbyPromotes: with a hot standby, a primary death
// mid-collection does NOT halt the deployment — the standby waits out the
// liveness lease and promotes a controller rebuilt from the log, which
// holds every record the dead primary received, the in-flight
// sub-window's included. Results stay byte-identical to a run with no
// failure. The spilling run sends a third of every sub-window's records
// down the injected-key path: the log holds those too. It runs under 4
// controller shards, the other under the default count: Standby needs no
// explicit Shards.
func TestFailoverStandbyPromotes(t *testing.T) {
	baseline := runChaos(t, nil)
	for _, spill := range []bool{false, true} {
		t.Run(fmt.Sprintf("spill=%v", spill), func(t *testing.T) {
			cfg := durableConfig(t.TempDir(), crashes(2))
			cfg.Standby = true
			if spill {
				cfg.Shards = 4
				chaosSpill(&cfg)
			}
			standbyPromotes(t, baseline, cfg)
		})
	}
}

func standbyPromotes(t *testing.T, baseline *Deployment, cfg Config) {
	t.Helper()
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d.RunFor(chaosTrace(), 500*ms)
	if err := d.CloseDurability(); err != nil {
		t.Fatal(err)
	}

	if d.crashed {
		t.Fatal("deployment halted despite the hot standby")
	}
	st := d.Stats()
	if st.Failovers != 1 {
		t.Fatalf("failovers = %d want 1", st.Failovers)
	}
	if st.IncompleteSubWindows != 0 {
		t.Fatalf("failover left %d incomplete sub-windows", st.IncompleteSubWindows)
	}
	// Everything the dead primary had received for sub-window 2 is in the
	// log, so the promoted controller re-queries nothing.
	if st.Retransmitted != 0 {
		t.Fatalf("retransmitted %d AFRs, want 0: the log held the takeover sub-window", st.Retransmitted)
	}

	if !reflect.DeepEqual(baseline.Results(), d.Results()) {
		t.Fatalf("failover changed results:\nclean:    %+v\nfailover: %+v",
			baseline.Results(), d.Results())
	}
}

// TestFailoverWhileDegradedFinalizesOnce: a crash failover inside a
// degraded-durability stretch. The log ends where the disk filled up, so
// the promoted controller charges the sub-windows since then Missing,
// re-finishes them without emitting (the old primary already did), and
// NACKs the in-flight sub-window back from the switch: every window is
// emitted once, byte-identical or Incomplete. A failover at 3 re-finishes
// boundary 2, which ends a window the old primary emitted complete.
func TestFailoverWhileDegradedFinalizesOnce(t *testing.T) {
	baseline := runChaos(t, nil)
	total := healthyOps(t)
	for _, crashAt := range []uint64{2, 3} {
		t.Run(fmt.Sprintf("crash%d", crashAt), func(t *testing.T) {
			sched := &faults.DiskSchedule{ENOSPC: faults.Fault{Fixed: opsFrom(total/4, total)}}
			cfg := diskConfig(t.TempDir(), crashes(crashAt), sched)
			cfg.Standby = true
			d := runDisk(t, cfg)
			st := d.Stats()
			if st.Failovers != 1 || !d.degraded {
				t.Fatalf("failovers = %d, degraded = %v: want one failover inside the degraded stretch",
					st.Failovers, d.degraded)
			}
			assertSingleFinalizer(t, d.Results())
			if assertIdenticalOrIncomplete(t, baseline.Results(), d.Results()) == 0 {
				t.Fatal("the failover lost the degraded stretch's records, yet no window reads Incomplete")
			}
			if st.Retransmitted == 0 {
				t.Fatal("the in-flight sub-window was not NACK-recovered")
			}
			if crashAt == 3 && st.SuppressedWindows == 0 {
				t.Fatal("re-finishing boundary 2 must suppress the window the old primary emitted")
			}
			if err := d.CloseDurability(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCrashWithoutDurabilityHalts: a scheduled crash on a deployment with
// no checkpoint directory simply halts it — traffic after the crash is
// ignored, and the windows emitted before the crash remain available.
func TestCrashWithoutDurabilityHalts(t *testing.T) {
	d := runChaos(t, func(c *Config) {
		c.plan.crash = crashes(2)
	})
	if !d.crashed || d.crashedAt != 2 {
		t.Fatalf("crash did not halt the deployment: crashed=%v at %d", d.crashed, d.crashedAt)
	}
	for _, w := range d.Results() {
		if w.End > 2 {
			t.Fatalf("window [%d,%d] emitted after the crash boundary", w.Start, w.End)
		}
	}
	st := d.Stats()
	if st.SubWindows > 3 {
		t.Fatalf("collected %d sub-windows past the crash", st.SubWindows)
	}
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
			c.plan.crash = crashes(crashAt)
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
		// The takeover adds only the lease wait to the worst round: the
		// log holds the in-flight sub-window, so no NACK round follows.
		ttl := 2 * d.cfg.SubWindow
		wait := st.MaxCollectVirtual - quiet
		if wait <= 0 || wait > ttl {
			t.Fatalf("crash at %d: lease wait %v, want in (0, %v] (worst round %v, fault-free %v)",
				crashAt, wait, ttl, st.MaxCollectVirtual, quiet)
		}
	}
}

// spikeConfig is durableConfig with a 60 ms grace and a flowkey filter
// that skips key 99: a packet of it moves the switch's sub-window but
// leaves no key in the region.
func spikeConfig(dir string) Config {
	cfg := durableConfig(dir, nil)
	cfg.Grace = 60 * time.Millisecond
	cfg.KeyOf = func(p *packet.Packet) (packet.FlowKey, bool) { return p.Key, p.Key != fk(99) }
	return cfg
}

// spikeTrace is chaosTrace with sub-window 1 holding one filtered packet,
// at 101 ms: it ends sub-window 0, which is collected and checkpointed at
// 161 ms, and gives sub-window 1 no switch state. Sub-window 1 ends with
// sub-window 2's first packet at 250 ms and is collected at 310 ms. Before
// that, an early packet of sub-window 3 at 301 ms takes over its region,
// and three late packets stamped 1 follow: the switch no longer preserves
// sub-window 1, so it hands them to the controller as latency spikes (§5),
// merged in software into a sub-window no checkpoint has seen yet. The
// takeover loses nothing, so every run is exact.
func spikeTrace() []packet.Packet {
	pkts := slices.DeleteFunc(chaosTrace(), func(p packet.Packet) bool { return p.Time/(100*ms) == 1 })
	pkts = append(pkts, packet.Packet{Key: fk(99), Size: 100, Time: 101 * ms}, packet.Packet{Key: fk(41), Size: 100, Time: 301 * ms})
	for i := 0; i < 3; i++ {
		pkts = append(pkts, packet.Packet{
			Key: fk(1 + i), Size: 100, Seq: uint32(100 + i), Time: int64(302+i) * ms,
			OW: packet.OWHeader{SubWindow: 1, HasSubWindow: true},
		})
	}
	slices.SortStableFunc(pkts, func(a, b packet.Packet) int { return cmp.Compare(a.Time, b.Time) })
	return pkts
}

// TestSpikesSurviveCrash: a latency spike merged in software is part of
// the durable state, so a crash-restart re-emits the uncrashed run's
// windows with it. (a) The store dies writing the manifest of the spiked
// sub-window's own boundary: no checkpoint holds the spike and the
// restart re-finishes the sub-window from the WAL, which must carry it —
// the trace tail cannot, because the restart resumes past the replayed
// finish. (b) The spiked sub-window finished and was checkpointed; a
// crash at a later boundary restarts from a checkpoint whose column for
// it must include the spike.
func TestSpikesSurviveCrash(t *testing.T) {
	pkts := spikeTrace()
	baseline := newDisk(t, spikeConfig(t.TempDir()))
	baseline.RunFor(pkts, 500*ms)
	if got := baseline.Stats().SpikesMerged; got != 3 {
		t.Fatalf("baseline merged %d spikes, want 3", got)
	}
	for _, w := range baseline.Results() {
		if w.Incomplete {
			t.Fatalf("baseline window [%d, %d] is Incomplete", w.Start, w.End)
		}
	}
	cases := map[string][]crashCase{
		"unfinished": {
			{b: 1, point: uncommitted},
		},
		"checkpointed": {
			{b: 2}, {b: 3}, {b: 2, point: uncommitted}, {b: 3, point: uncommitted},
		},
	}
	for name, cs := range cases {
		t.Run(name, func(t *testing.T) {
			for _, c := range cs {
				c.config, c.pkts = spikeConfig, pkts
				if got := c.run(t).stitched; !reflect.DeepEqual(baseline.Results(), got) {
					t.Fatalf("crash at boundary %d (store point %q) lost a spike:\nuncrashed: %+v\nstitched:  %+v",
						c.b, c.point, baseline.Results(), got)
				}
			}
		})
	}
}
