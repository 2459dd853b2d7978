package omniwindow

import (
	"fmt"
	"reflect"
	"testing"

	"omniwindow/internal/faults"
	"omniwindow/internal/pool"
)

// Differential property tests for the pooled hot path: buffer pooling and
// batched ingest are performance mechanisms only —
// with identical seeds they must produce byte-identical WindowResults and
// identical (virtual-time) stats under every chaos schedule, with pooling
// on or off. A divergence here means a pooled buffer was read after
// release or a batch boundary leaked into the semantics.

// withPooling runs f with the pool globally forced on or off, restoring
// the enabled state (pooling is on by default) afterwards.
func withPooling(enabled bool, f func()) {
	pool.SetEnabled(enabled)
	defer pool.SetEnabled(true)
	f()
}

// TestChaosPoolingDifferential: pooling on vs off across the seeded
// drop/duplicate chaos schedules.
func TestChaosPoolingDifferential(t *testing.T) {
	schedules := []struct {
		name string
		cfg  *faults.Config
	}{
		{"lossless", nil},
		{"drop5/seed1", &faults.Config{Seed: 1, Drop: 0.05}},
		{"drop20+dup/seed1", &faults.Config{Seed: 1, Drop: 0.20, Duplicate: 0.20, MaxDuplicates: 2}},
		{"dup-only/seed2", &faults.Config{Seed: 2, Duplicate: 0.5, MaxDuplicates: 3}},
	}
	for _, sched := range schedules {
		t.Run(sched.name, func(t *testing.T) {
			run := func(pooled bool) *Deployment {
				var d *Deployment
				withPooling(pooled, func() {
					d = runChaos(t, func(c *Config) {
						if sched.cfg != nil {
							c.plan.afrFaults = faults.New(*sched.cfg)
						}
					})
				})
				return d
			}
			base := run(true)
			if len(base.Results()) == 0 {
				t.Fatal("pooled baseline produced no windows")
			}
			d := run(false)
			if !reflect.DeepEqual(base.Results(), d.Results()) {
				t.Fatalf("unpooled results diverged from pooled baseline:\npooled:   %+v\nunpooled: %+v",
					base.Results(), d.Results())
			}
			if base.Stats() != d.Stats() {
				t.Fatalf("unpooled stats diverged from pooled baseline:\npooled:   %+v\nunpooled: %+v",
					base.Stats(), d.Stats())
			}
		})
	}
}

// TestChaosPoolingDifferentialCrashRestart: the durability path (WAL
// encode scratch, checkpoint scratch, replay through the batched ingest)
// must also be pooling-invariant — the store dies inside a boundary's
// checkpoint, the restart replays that boundary's WAL, and the stitched
// window sequence matches the pooled uncrashed baseline whether the runs
// pool or not.
func TestChaosPoolingDifferentialCrashRestart(t *testing.T) {
	baseline := runChaos(t, nil)
	if len(baseline.Results()) == 0 {
		t.Fatal("baseline produced no windows")
	}
	for _, pooled := range []bool{true, false} {
		for _, at := range []uint64{1, 3} {
			t.Run(fmt.Sprintf("pooled=%v/boundary%d", pooled, at), func(t *testing.T) {
				var combined []WindowResult
				withPooling(pooled, func() {
					combined = crashCase{b: at, point: uncommitted}.run(t).stitched
				})
				if !reflect.DeepEqual(baseline.Results(), combined) {
					t.Fatalf("pooled=%v crash at %d not exactly recovered:\nuncrashed: %+v\nstitched:  %+v",
						pooled, at, baseline.Results(), combined)
				}
			})
		}
	}
}

// TestChaosPoolingDebugLeakFree runs a full faulted deployment under the
// pool's debug tracking: every pooled buffer the run takes out must be
// back in the free lists when the deployment finishes — the ownership
// rules hold end to end, not just in unit tests.
func TestChaosPoolingDebugLeakFree(t *testing.T) {
	pool.SetDebug(true)
	defer pool.SetDebug(false)
	d := runChaos(t, func(c *Config) {
		c.plan.afrFaults = faults.New(faults.Config{Seed: 3, Drop: 0.10, Duplicate: 0.10, MaxDuplicates: 2})
	})
	if len(d.Results()) == 0 {
		t.Fatal("run produced no windows")
	}
	// Long-lived scratch (decode packets, shard pending for still-open
	// sub-windows) legitimately stays out; what must not happen is
	// unbounded growth. Bound outstanding by a generous constant rather
	// than pinning zero.
	if n := pool.Outstanding(); n > 256 {
		t.Fatalf("%d pooled buffers still outstanding after the run — leak", n)
	}
}
