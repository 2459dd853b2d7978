package omniwindow

import (
	"math/rand"
	"reflect"
	"testing"

	"omniwindow/internal/faults"
	"omniwindow/internal/window"
)

// TestChaosNeverDoubleCountsProperty: for ANY seeded fault schedule with
// loss below 100%, sequence dedup plus bounded NACK/retransmit recovery
// yields per-key counts equal to the lossless baseline — duplicates never
// inflate a count, and retransmitted records never land twice. Schedules
// are drawn from a seeded meta-RNG so failures replay exactly.
func TestChaosNeverDoubleCountsProperty(t *testing.T) {
	baseline := runChaos(t, nil)
	if len(baseline.Results()) == 0 {
		t.Fatal("baseline produced no windows")
	}

	meta := rand.New(rand.NewSource(2026))
	for trial := 0; trial < 12; trial++ {
		fc := faults.Config{
			Seed:          meta.Int63(),
			Drop:          meta.Float64() * 0.5, // loss < 100%: recovery can win
			Duplicate:     meta.Float64() * 0.5,
			MaxDuplicates: 1 + meta.Intn(3),
		}
		inj := faults.New(fc)
		d := runChaos(t, func(c *Config) {
			c.plan.afrFaults = inj
			// Enough rounds that a <=50% per-packet loss rate converges
			// with overwhelming probability.
			c.plan.retry = fastRetry(30)
		})
		if d.Stats().IncompleteSubWindows != 0 {
			t.Fatalf("trial %d (cfg %+v): %d incomplete sub-windows",
				trial, fc, d.Stats().IncompleteSubWindows)
		}
		got, want := d.Results(), baseline.Results()
		if len(got) != len(want) {
			t.Fatalf("trial %d (cfg %+v): %d windows, want %d", trial, fc, len(got), len(want))
		}
		for i := range want {
			for k, v := range want[i].Values {
				if got[i].Values[k] != v {
					t.Fatalf("trial %d (cfg %+v) window %d key %v: got %d want %d",
						trial, fc, i, k, got[i].Values[k], v)
				}
			}
			for k, v := range got[i].Values {
				if want[i].Values[k] != v {
					t.Fatalf("trial %d (cfg %+v) window %d phantom key %v = %d",
						trial, fc, i, k, v)
				}
			}
		}
	}
}

// TestChaosRDMAVerbErrors: injected RDMA completion errors must never
// lose telemetry data — the failed verb's record falls back to the
// packet path, so results match a fault-free RDMA run exactly.
func TestChaosRDMAVerbErrors(t *testing.T) {
	run := func(sched *faults.RDMASchedule) *Deployment {
		cfg := freqConfig(window.SlidingPlan(3, 1), 25, true)
		cfg.plan.rdmaFaults = sched
		d, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		d.RunFor(chaosTrace(), 500*ms)
		return d
	}
	baseline := run(nil)
	if len(baseline.Results()) == 0 {
		t.Fatal("baseline produced no windows")
	}

	for _, seed := range []uint64{1, 2, 3} {
		d := run(&faults.RDMASchedule{Seed: seed, VerbError: 0.3})
		if rdmaOf(d).Stats().VerbErrors == 0 {
			t.Fatalf("seed %d: schedule injected no verb errors", seed)
		}
		if !reflect.DeepEqual(baseline.Results(), d.Results()) {
			t.Fatalf("seed %d: verb errors changed results:\nbaseline: %+v\nfaulted:  %+v",
				seed, baseline.Results(), d.Results())
		}
	}
}

// TestChaosCrashRestartProperty: for ANY seeded probabilistic crash
// schedule and ANY crash point — the controller, or the store at any step
// of the boundary's WAL append and checkpoint — dying wherever the schedule
// strikes first and restarting on the same directory stitches back the
// exact uncrashed window sequence. Schedules and points come from a seeded
// meta-RNG so failures replay exactly.
func TestChaosCrashRestartProperty(t *testing.T) {
	baseline := runChaos(t, nil)
	if len(baseline.Results()) == 0 {
		t.Fatal("baseline produced no windows")
	}

	meta := rand.New(rand.NewSource(2027))
	points := append([]string{""}, storeCrashPoints...)
	crashes, replays := 0, 0
	for trial := 0; trial < 12; trial++ {
		cs := &faults.CrashSchedule{
			Seed:  meta.Uint64(),
			Fault: faults.Fault{Prob: 0.15 + meta.Float64()*0.5},
		}
		point := points[meta.Intn(len(points))]

		// Find where (if anywhere) this schedule strikes first.
		at, willCrash := uint64(0), false
		for sw := uint64(0); sw <= 4; sw++ {
			if cs.At(sw) {
				at, willCrash = sw, true
				break
			}
		}
		if !willCrash {
			d, err := New(durableConfig(t.TempDir(), cs))
			if err != nil {
				t.Fatal(err)
			}
			d.RunFor(chaosTrace(), 500*ms)
			if d.crashed {
				t.Fatalf("trial %d: schedule %+v crashed despite predicting no crash", trial, cs)
			}
			if !reflect.DeepEqual(baseline.Results(), d.Results()) {
				t.Fatalf("trial %d: durable run without crash diverged", trial)
			}
			d.CloseDurability()
			continue
		}
		crashes++
		r := crashCase{b: at, point: point}.run(t)
		if r.replayed {
			replays++
		}
		if !reflect.DeepEqual(baseline.Results(), r.stitched) {
			t.Fatalf("trial %d (seed %d prob %.2f, crash at %d, store point %q): restart diverged:\nuncrashed: %+v\nstitched:  %+v",
				trial, cs.Seed, cs.Prob, at, point, baseline.Results(), r.stitched)
		}
	}
	if crashes == 0 || replays == 0 {
		t.Fatalf("meta-RNG produced %d crashing schedules, %d of them replaying WAL; property untested", crashes, replays)
	}
}

// TestChaosRetryKnobsBoundVirtualTime: recovery waits are charged to the
// C&R virtual-time budget, so the configured backoff knobs bound the
// worst-case stall a lossy sub-window can add.
func TestChaosRetryKnobsBoundVirtualTime(t *testing.T) {
	inj := faults.New(faults.Config{Seed: 1, Drop: 1})
	d := runChaos(t, func(c *Config) {
		c.plan.afrFaults = inj
		c.plan.retry = fastRetry(3)
	})
	// Per sub-window: 1ms + 2ms + 2ms of backoff on top of the lossless
	// C&R time; the budget must stay within the 100 ms sub-window.
	if err := d.assertConsistent(); err != nil {
		t.Fatal(err)
	}
	if d.Stats().RecoveryRounds == 0 {
		t.Fatal("no recovery rounds charged")
	}
}
