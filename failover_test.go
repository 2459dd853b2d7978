package omniwindow

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"omniwindow/internal/controller"
	"omniwindow/internal/faults"
	"omniwindow/internal/packet"
	"omniwindow/internal/window"
)

// durableConfig is the chaos deployment with durability enabled.
func durableConfig(dir string, every int, crash *faults.CrashSchedule) Config {
	cfg := freqConfig(window.SlidingPlan(3, 1), 25, false)
	cfg.RetryBackoff = time.Millisecond
	cfg.RetryMaxBackoff = 2 * time.Millisecond
	cfg.CheckpointDir = dir
	cfg.CheckpointEvery = every
	cfg.Crash = crash
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

// lastCheckpointBefore returns the highest boundary <= at that took a
// checkpoint under the given cadence, and whether one exists.
func lastCheckpointBefore(at uint64, every int) (uint64, bool) {
	if every <= 0 {
		every = 1
	}
	for b := int64(at); b >= 0; b-- {
		if (uint64(b)+1)%uint64(every) == 0 {
			return uint64(b), true
		}
	}
	return 0, false
}

// crashAndRestart kills a deployment at boundary `at`, restarts it on the
// same checkpoint directory, replays the trace tail, and returns the
// combined window sequence: the pre-crash run's windows through the last
// checkpoint, then everything the restarted run emitted (WAL-replayed
// windows first, fresh tail windows after). The second return is the
// restarted deployment, for stats assertions.
func crashAndRestart(t *testing.T, dir string, every int, at uint64) ([]controller.WindowResult, *Deployment) {
	t.Helper()
	combined := crashRun(t, dir, every, at, 0)
	d2 := restartRun(t, dir, every, at, 0)
	if err := d2.CloseDurability(); err != nil {
		t.Fatal(err)
	}
	return append(combined, d2.Results()...), d2
}

// crashRun is crashAndRestart's first incarnation, under the given
// controller shard count (0: the default): it runs until the crash at `at`
// and returns its windows the last checkpoint fully covers.
func crashRun(t *testing.T, dir string, every int, at uint64, shards int) []controller.WindowResult {
	t.Helper()
	cfg := durableConfig(dir, every, crashes(at))
	cfg.Shards = shards
	d1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d1.RunFor(chaosTrace(), 500*ms)
	if sw, ok := d1.Crashed(); !ok || sw != at {
		t.Fatalf("crash at %d did not fire: crashed=%v sw=%d", at, ok, sw)
	}
	if err := d1.DurabilityErr(); err != nil {
		t.Fatalf("pre-crash run hit a durable-write error: %v", err)
	}

	// Keep only the pre-crash windows the last checkpoint fully covers;
	// the restarted run re-emits the rest from the WAL.
	var covered []controller.WindowResult
	if ckpt, ok := lastCheckpointBefore(at, every); ok {
		for _, w := range d1.Results() {
			if w.End <= ckpt {
				covered = append(covered, w)
			}
		}
	}
	return covered
}

// restartRun is crashAndRestart's second incarnation: it recovers from dir
// under the given shard count and runs the trace tail past `at`. The
// caller closes its store.
func restartRun(t *testing.T, dir string, every int, at uint64, shards int) *Deployment {
	t.Helper()
	cfg := durableConfig(dir, every, nil)
	cfg.Shards = shards
	d2, err := New(cfg)
	if err != nil {
		t.Fatalf("restart on %s failed: %v", dir, err)
	}
	d2.RunFor(traceTail(chaosTrace(), at), 500*ms)
	return d2
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
			combined, _ := crashAndRestart(t, t.TempDir(), 1, at)
			if !reflect.DeepEqual(baseline.Results(), combined) {
				t.Fatalf("crash at %d not exactly recovered:\nuncrashed: %+v\nstitched:  %+v",
					at, baseline.Results(), combined)
			}
		})
	}
}

// TestCrashRestartReplaysWAL: with checkpoints every other boundary, a
// crash between checkpoints forces real WAL replay — re-ingested batches,
// re-announced triggers and re-run window assemblies — and the result is
// still byte-identical.
func TestCrashRestartReplaysWAL(t *testing.T) {
	baseline := runChaos(t, nil)
	for _, at := range []uint64{0, 2, 4} { // boundaries NOT covered by a fresh checkpoint (every=2 checkpoints at 1, 3)
		t.Run(fmt.Sprintf("boundary%d", at), func(t *testing.T) {
			combined, d2 := crashAndRestart(t, t.TempDir(), 2, at)
			if d2.Stats().ReplayedWindows == 0 && at >= 2 {
				// Boundary 0 finishes no window yet; from 2 on, the WAL
				// holds at least one finish past the last checkpoint.
				t.Fatal("no windows re-emitted from WAL replay")
			}
			if !reflect.DeepEqual(baseline.Results(), combined) {
				t.Fatalf("crash at %d (ckpt every 2) not exactly recovered:\nuncrashed: %+v\nstitched:  %+v",
					at, baseline.Results(), combined)
			}
		})
	}
}

// TestCrashRestartAcrossShardCounts: the controller's shard count is not
// part of the on-disk format. A deployment restarted under a different
// Shards value recovers exactly, and its first checkpoint supersedes every
// WAL segment the crashed incarnation wrote.
func TestCrashRestartAcrossShardCounts(t *testing.T) {
	baseline := runChaos(t, nil)
	const every = 2
	for _, shards := range [][2]int{{4, 2}, {2, 4}} {
		for _, at := range []uint64{2, 4} {
			t.Run(fmt.Sprintf("shards%d-%d/boundary%d", shards[0], shards[1], at), func(t *testing.T) {
				dir := t.TempDir()
				combined := crashRun(t, dir, every, at, shards[0])
				before := walFiles(t, dir)
				if len(before) == 0 {
					t.Fatal("the crashed run left no WAL to replay")
				}
				d2 := restartRun(t, dir, every, at, shards[1])
				defer d2.CloseDurability()
				if got := append(combined, d2.Results()...); !reflect.DeepEqual(baseline.Results(), got) {
					t.Fatalf("restart under %d shards after a crash under %d not exact:\nuncrashed: %+v\nstitched:  %+v",
						shards[1], shards[0], baseline.Results(), got)
				}
				// The trace ends at sub-window 4: close the next one, so
				// that a crash at 4 also sees a checkpoint after the restart.
				d2.Finalize()
				if through, ok := checkpointedThrough(t, dir); !ok || through <= at {
					t.Fatalf("no checkpoint after the restart: through %d (%v)", through, ok)
				}
				for _, name := range before {
					if _, err := os.Stat(name); !errors.Is(err, os.ErrNotExist) {
						t.Errorf("%s, written before the crash, outlived the restarted run's checkpoint (%v)", filepath.Base(name), err)
					}
				}
			})
		}
	}
}

// TestFailoverStandbyPromotes: with a hot standby, a primary death
// mid-collection does NOT halt the deployment — the standby waits out the
// liveness lease, promotes from the checkpoint it tailed at the previous
// boundary, and the re-sent trigger plus the ordinary NACK/retransmit loop
// recover the one in-flight sub-window from the still-unreset switch
// region. Results stay byte-identical to a run with no failure.
// The spilling run sends a third of every sub-window's records down the
// injected-key path: those are NACK-recovered from the region too. It runs
// under 4 controller shards, the other under the default count: Standby
// needs no explicit Shards.
func TestFailoverStandbyPromotes(t *testing.T) {
	baseline := runChaos(t, nil)
	for _, spill := range []bool{false, true} {
		t.Run(fmt.Sprintf("spill=%v", spill), func(t *testing.T) {
			cfg := durableConfig(t.TempDir(), 1, crashes(2))
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

	if _, crashed := d.Crashed(); crashed {
		t.Fatal("deployment halted despite the hot standby")
	}
	st := d.Stats()
	if st.Failovers != 1 {
		t.Fatalf("failovers = %d want 1", st.Failovers)
	}
	if st.Retransmitted == 0 {
		t.Fatal("takeover gap was not NACK-recovered")
	}
	if st.IncompleteSubWindows != 0 {
		t.Fatalf("failover left %d incomplete sub-windows", st.IncompleteSubWindows)
	}

	// The gap is exactly the in-flight sub-window: everything the dead
	// primary had received for sub-window 2 died with it, so the promoted
	// standby re-queries precisely that sub-window's flows — no more
	// (neighbours were checkpoint-covered), no fewer (nothing is lost).
	gap := map[packet.FlowKey]bool{}
	for _, p := range chaosTrace() {
		if p.Time >= 200*ms && p.Time < 300*ms {
			gap[p.Key] = true
		}
	}
	if st.Retransmitted != len(gap) {
		t.Fatalf("retransmitted %d AFRs, want exactly the takeover sub-window's %d flows",
			st.Retransmitted, len(gap))
	}

	if !reflect.DeepEqual(baseline.Results(), d.Results()) {
		t.Fatalf("failover changed results:\nclean:    %+v\nfailover: %+v",
			baseline.Results(), d.Results())
	}
}

// TestCrashWithoutDurabilityHalts: a scheduled crash on a deployment with
// no checkpoint directory simply halts it — traffic after the crash is
// ignored, and the windows emitted before the crash remain available.
func TestCrashWithoutDurabilityHalts(t *testing.T) {
	d := runChaos(t, func(c *Config) {
		c.Crash = crashes(2)
	})
	if sw, ok := d.Crashed(); !ok || sw != 2 {
		t.Fatalf("crash did not halt the deployment: %v %v", sw, ok)
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
			c.Crash = crashes(crashAt)
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
