package omniwindow

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"omniwindow/internal/afr"
	"omniwindow/internal/controller"
	"omniwindow/internal/faults"
	"omniwindow/internal/obs"
	"omniwindow/internal/packet"
	"omniwindow/internal/window"
)

// chaosTrace is a deterministic multi-flow trace spanning five 100 ms
// sub-windows: every flow appears in several sub-windows with a
// flow-dependent packet count, so merged window values exercise both
// detection outcomes and the per-key comparison has real structure.
func chaosTrace() []packet.Packet {
	var pkts []packet.Packet
	for swi := int64(0); swi < 5; swi++ {
		at := swi*100*ms + 50*ms
		for f := 1; f <= 40; f++ {
			if (int64(f)+swi)%3 == 0 {
				continue // this flow skips this sub-window
			}
			n := 3 + (f+int(swi)*7)%9
			for i := 0; i < n; i++ {
				pkts = append(pkts, packet.Packet{
					Key:  fk(f),
					Size: 100,
					Seq:  uint32(i),
					Time: at + int64(i)*ms,
				})
			}
		}
	}
	return pkts
}

// chaosSpill sizes the flowkey array under chaosTrace's 26-27 flows per
// sub-window: a third of every sub-window's keys spill, and their AFRs
// ride the injected-key path with sequence numbers past the tracked count.
func chaosSpill(c *Config) {
	c.Tracker = afr.TrackerConfig{BufferKeys: 18, BloomBits: 1 << 16, BloomHashes: 3}
}

// fastRetry is the chaos suites' recovery policy: rounds NACK rounds,
// backoff 1 ms doubling to 2 ms.
func fastRetry(rounds int) *controller.RetryPolicy {
	return &controller.RetryPolicy{MaxRetries: rounds, Backoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond}
}

// runChaos runs the standard chaos deployment over chaosTrace and returns
// the deployment for results/stats inspection.
func runChaos(t *testing.T, mutate func(*Config)) *Deployment {
	t.Helper()
	cfg := freqConfig(window.SlidingPlan(3, 1), 25, false)
	cfg.plan.retry = fastRetry(4)
	if mutate != nil {
		mutate(&cfg)
	}
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d.RunFor(chaosTrace(), 500*ms)
	return d
}

// TestChaosRecoveryByteIdentical is the tentpole assertion: under seeded
// drop/duplicate schedules on the AFR path, the NACK/retransmit protocol
// recovers every loss and the window results are byte-identical to a
// lossless run — reliability is exact repair, not approximation.
func TestChaosRecoveryByteIdentical(t *testing.T) {
	baseline := runChaos(t, nil)
	if len(baseline.Results()) == 0 {
		t.Fatal("baseline produced no windows")
	}

	cases := []struct {
		name  string
		cfg   faults.Config
		spill bool // lose spilled keys' AFRs too
	}{
		{"drop5/seed1", faults.Config{Seed: 1, Drop: 0.05}, false},
		{"drop5/seed2", faults.Config{Seed: 2, Drop: 0.05}, false},
		{"drop5/seed3", faults.Config{Seed: 3, Drop: 0.05}, false},
		{"drop20+dup/seed1", faults.Config{Seed: 1, Drop: 0.20, Duplicate: 0.20, MaxDuplicates: 2}, false},
		{"dup-only/seed2", faults.Config{Seed: 2, Duplicate: 0.5, MaxDuplicates: 3}, false},
		{"drop20+dup+spill/seed1", faults.Config{Seed: 1, Drop: 0.20, Duplicate: 0.20, MaxDuplicates: 2}, true},
	}
	// Nightly sweep: OMNIWINDOW_EXTRA_SEEDS widens the fixed table with
	// derived seeds on the mixed drop+duplicate schedule.
	for _, s := range faults.ExtraSeeds(1) {
		cases = append(cases, struct {
			name  string
			cfg   faults.Config
			spill bool
		}{fmt.Sprintf("drop10+dup/seed%d", s),
			faults.Config{Seed: int64(s), Drop: 0.10, Duplicate: 0.10, MaxDuplicates: 2}, false})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			inj := faults.New(tc.cfg)
			d := runChaos(t, func(c *Config) {
				c.plan.afrFaults = inj
				if tc.spill {
					chaosSpill(c)
				}
			})
			if tc.spill && d.Stats().Spills == 0 {
				t.Fatal("no key spilled")
			}

			fs := inj.Stats()
			if tc.cfg.Drop > 0 && fs.Dropped == 0 {
				t.Fatalf("schedule injected no drops: %+v", fs)
			}
			if tc.cfg.Duplicate > 0 && fs.Duplicated == 0 {
				t.Fatalf("schedule injected no duplicates: %+v", fs)
			}
			if tc.cfg.Drop > 0 && d.Stats().RecoveryRounds == 0 {
				t.Fatal("drops recovered without any NACK round")
			}
			if d.Stats().IncompleteSubWindows != 0 {
				t.Fatalf("recovery left %d incomplete sub-windows", d.Stats().IncompleteSubWindows)
			}
			if !reflect.DeepEqual(baseline.Results(), d.Results()) {
				t.Fatalf("chaos results differ from lossless run:\nlossless: %+v\nchaos:    %+v",
					baseline.Results(), d.Results())
			}
		})
	}
}

// TestChaosRetriesDisabledMarksIncomplete: the same faulted pipeline with
// recovery disabled must not silently return short counts — the windows
// spanning lossy sub-windows finalize explicitly marked Incomplete.
func TestChaosRetriesDisabledMarksIncomplete(t *testing.T) {
	inj := faults.New(faults.Config{Seed: 1, Drop: 0.20})
	d := runChaos(t, func(c *Config) {
		c.plan.afrFaults = inj
		c.plan.retry = fastRetry(0)
	})
	if inj.Stats().Dropped == 0 {
		t.Fatal("schedule injected no drops")
	}
	if d.Stats().RecoveryRounds != 0 || d.Stats().Retransmitted != 0 {
		t.Fatalf("disabled retries still recovered: %+v", d.Stats())
	}
	if d.Stats().IncompleteSubWindows == 0 {
		t.Fatal("lossy sub-windows not counted incomplete")
	}
	incomplete := 0
	for _, w := range d.Results() {
		if w.Incomplete {
			incomplete++
			if w.MissingAFRs == 0 {
				t.Fatalf("window [%d,%d] Incomplete with MissingAFRs = 0", w.Start, w.End)
			}
		}
	}
	if incomplete == 0 {
		t.Fatal("no window marked Incomplete despite unrecovered losses")
	}
}

// TestChaosRecoveryExhaustion: drops so frequent that the bounded retries
// cannot win (every retransmission is also dropped) must converge to an
// Incomplete marking rather than looping forever.
func TestChaosRecoveryExhaustion(t *testing.T) {
	inj := faults.New(faults.Config{Seed: 7, Drop: 1})
	d := runChaos(t, func(c *Config) {
		c.plan.afrFaults = inj
		c.plan.retry = fastRetry(2)
	})
	st := d.Stats()
	if st.RecoveryRounds == 0 || st.Retransmitted == 0 {
		t.Fatalf("exhaustion path never retried: %+v", st)
	}
	if st.IncompleteSubWindows == 0 {
		t.Fatal("total loss not marked incomplete")
	}
	for _, w := range d.Results() {
		if !w.Incomplete {
			t.Fatalf("window [%d,%d] not Incomplete under total loss", w.Start, w.End)
		}
	}
}

// TestChaosDeterministicSchedules: the same seed must produce the same
// run — fault schedules are reproducible test cases, not flakes.
func TestChaosDeterministicSchedules(t *testing.T) {
	run := func() (*Deployment, faults.Stats) {
		inj := faults.New(faults.Config{Seed: 5, Drop: 0.10, Duplicate: 0.10})
		d := runChaos(t, func(c *Config) { c.plan.afrFaults = inj })
		return d, inj.Stats()
	}
	d1, s1 := run()
	d2, s2 := run()
	if s1 != s2 {
		t.Fatalf("same seed, different fault stats:\n%+v\n%+v", s1, s2)
	}
	if d1.Stats() != d2.Stats() {
		t.Fatalf("same seed, different run stats:\n%+v\n%+v", d1.Stats(), d2.Stats())
	}
	if !reflect.DeepEqual(d1.Results(), d2.Results()) {
		t.Fatal("same seed, different window results")
	}
}

// TestChaosRecoveryAccounting: a lossy boundary's delivery batches reach
// the controller as the packets they are, retransmit flag and O1 charge
// included — the recovered records are counted, every sub-window is
// charged its receive time, and the windows equal the loss-free run's.
func TestChaosRecoveryAccounting(t *testing.T) {
	run := func(lossy bool) (*Deployment, *obs.Registry) {
		reg := obs.NewRegistry()
		return runChaos(t, func(c *Config) {
			c.Obs = reg
			if lossy {
				c.plan.afrFaults = &everyThird{}
			}
		}), reg
	}
	lossFree, _ := run(false)
	d, reg := run(true)

	if counter(reg, "omniwindow_controller_recovered_total") == 0 || d.Stats().Retransmitted == 0 {
		t.Fatalf("the lossy run recovered nothing: %+v", d.Stats())
	}
	// Necessary, not sufficient: the trigger alone charges some O1 time.
	for sw := uint64(0); sw < 5; sw++ {
		if d.ctrl.Times(sw).Collect <= 0 {
			t.Errorf("sub-window %d: no O1 receive time charged", sw)
		}
	}
	if !reflect.DeepEqual(lossFree.Results(), d.Results()) {
		t.Error("windows under loss differ from the loss-free run's")
	}
}
