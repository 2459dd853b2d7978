package omniwindow

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"omniwindow/internal/faults"
	"omniwindow/internal/packet"
	"omniwindow/internal/rdma"
	"omniwindow/internal/window"
)

// This file is the RDMA chaos suite (make rdma-chaos): it proves the
// transport's contract under deterministic fault schedules. Within the
// retry/replay budget every window is byte-identical to the fault-free
// run — RNR retries absorb transient verb errors, the PSN NACK/replay
// loop closes in-flight gaps, and whatever neither can land rides the
// packet path with its original sequence numbers, so the controller's
// dedup makes the transport switch exact. Beyond the budget, windows are
// explicitly Degraded with MissingAFRs/ShedAFRs that reconcile against
// the transport's own loss count — never silently short.

// runRDMAChaos runs the standard chaos deployment in RDMA mode.
func runRDMAChaos(t *testing.T, mutate func(*Config)) *Deployment {
	t.Helper()
	cfg := freqConfig(window.SlidingPlan(3, 1), 25, true)
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

// TestRDMAChaosByteIdentical is the tentpole assertion: under every
// schedule the retry/replay/fallback machinery can absorb — transient
// verb errors, in-flight PSN drops, async QP errors, sustained outages,
// region invalidations, and all of them at once — the merged windows are
// byte-identical to the fault-free RDMA run, with nothing shed and
// nothing missing.
func TestRDMAChaosByteIdentical(t *testing.T) {
	baseline := runRDMAChaos(t, nil)
	if len(baseline.Results()) == 0 {
		t.Fatal("baseline produced no windows")
	}

	cases := []struct {
		name  string
		sched *faults.RDMASchedule
		// exercised asserts the schedule actually hit the fault path it
		// is named for.
		exercised func(st rdma.TransportStats, fallbacks int) string
		spill     bool // a third of the records ride the injected-key path
	}{
		{"psn-drop/seed1", &faults.RDMASchedule{Seed: 1, PSNDrop: 0.25},
			func(st rdma.TransportStats, fallbacks int) string {
				if st.PSNDrops == 0 || st.Replayed == 0 {
					return "no PSN drops replayed"
				}
				return ""
			}, false},
		{"psn-drop/seed2", &faults.RDMASchedule{Seed: 2, PSNDrop: 0.25},
			func(st rdma.TransportStats, fallbacks int) string {
				if st.PSNDrops == 0 {
					return "no PSN drops"
				}
				return ""
			}, false},
		{"psn-drop/seed3", &faults.RDMASchedule{Seed: 3, PSNDrop: 0.25},
			func(st rdma.TransportStats, fallbacks int) string {
				if st.PSNDrops == 0 {
					return "no PSN drops"
				}
				return ""
			}, false},
		{"verb-errors/seed1", &faults.RDMASchedule{Seed: 1, VerbError: 0.30},
			func(st rdma.TransportStats, fallbacks int) string {
				if st.VerbErrors == 0 || st.VerbRetries == 0 {
					return "no verb errors retried"
				}
				return ""
			}, false},
		{"qp-error-boundaries", &faults.RDMASchedule{
			QPError: faults.Fault{Fixed: []uint64{1, 3}}},
			func(st rdma.TransportStats, fallbacks int) string {
				if st.QPErrors != 2 || st.QPRecoveries != 2 {
					return fmt.Sprintf("QP errors/recoveries = %d/%d, want 2/2", st.QPErrors, st.QPRecoveries)
				}
				if fallbacks == 0 {
					return "Error-state sends never fell back"
				}
				return ""
			}, false},
		{"sustained-outage", &faults.RDMASchedule{
			QPError: faults.Fault{Fixed: []uint64{1}},
			Outage:  faults.Fault{Fixed: []uint64{1, 2}}},
			func(st rdma.TransportStats, fallbacks int) string {
				if st.QPErrors != 1 || st.QPRecoveries != 1 {
					return fmt.Sprintf("QP errors/recoveries = %d/%d, want recovery only after the outage", st.QPErrors, st.QPRecoveries)
				}
				return ""
			}, false},
		{"mr-invalidate", &faults.RDMASchedule{
			MRInvalidate: faults.Fault{Fixed: []uint64{2}}},
			func(st rdma.TransportStats, fallbacks int) string {
				if st.MRInvalidations != 1 || st.Reregistrations != 1 {
					return "region never invalidated"
				}
				if st.Replayed == 0 {
					return "invalidated verbs never replayed"
				}
				return ""
			}, false},
		{"combined/seed1", &faults.RDMASchedule{Seed: 1,
			VerbError: 0.15, PSNDrop: 0.15,
			QPError:      faults.Fault{Prob: 0.3},
			MRInvalidate: faults.Fault{Prob: 0.3}},
			func(st rdma.TransportStats, fallbacks int) string { return "" }, false},
		{"combined+spill/seed1", &faults.RDMASchedule{Seed: 1,
			VerbError: 0.15, PSNDrop: 0.15,
			QPError:      faults.Fault{Prob: 0.3},
			MRInvalidate: faults.Fault{Prob: 0.3}},
			func(st rdma.TransportStats, fallbacks int) string { return "" }, true},
	}
	// Nightly sweep: OMNIWINDOW_EXTRA_SEEDS widens the fixed table with
	// derived seeds on the combined schedule (table base 4; packet chaos
	// and controller chaos hold bases 1 and 2, and base 3 stays unused
	// since the switch-failure suite that held it was retired).
	for _, s := range faults.ExtraSeeds(4) {
		cases = append(cases, struct {
			name      string
			sched     *faults.RDMASchedule
			exercised func(st rdma.TransportStats, fallbacks int) string
			spill     bool
		}{fmt.Sprintf("combined/seed%d", s),
			&faults.RDMASchedule{Seed: s,
				VerbError: 0.15, PSNDrop: 0.15,
				QPError:      faults.Fault{Prob: 0.3},
				MRInvalidate: faults.Fault{Prob: 0.3}},
			func(st rdma.TransportStats, fallbacks int) string { return "" }, false})
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := runRDMAChaos(t, func(c *Config) {
				c.plan.rdmaFaults = tc.sched
				if tc.spill {
					chaosSpill(c)
				}
			})
			st := rdmaOf(d).Stats()
			if msg := tc.exercised(st, d.Stats().FallbackAFRs); msg != "" {
				t.Fatalf("%s: %+v", msg, st)
			}
			if st.Lost != 0 {
				t.Fatalf("within-budget schedule lost %d records: %+v", st.Lost, st)
			}
			for _, w := range d.Results() {
				if w.Degraded || w.Incomplete || w.MissingAFRs != 0 || w.ShedAFRs != 0 {
					t.Fatalf("within-budget window [%d,%d] not clean: %+v", w.Start, w.End, w)
				}
			}
			if !reflect.DeepEqual(baseline.Results(), d.Results()) {
				t.Fatalf("chaos results differ from fault-free run:\nfault-free: %+v\nchaos:      %+v",
					baseline.Results(), d.Results())
			}
		})
	}
}

// TestRDMAChaosBeyondBudgetDegrades drives the transport past its replay
// budget: every verb's request is lost in flight and the replay window is
// far smaller than a sub-window's traffic, so evicted verbs are gone for
// good. A sub-window's cold records are one append verb, so the traffic
// that overruns the window is hot: every key is promoted at its first
// appearance and each of its records is a WRITE verb of its own. The windows must come out explicitly Degraded, and the
// MissingAFRs/ShedAFRs accounting must reconcile exactly against the
// transport's own loss count — while the records still inside the window
// are repaired through mid-window fallback, proving loss and handoff
// coexist without double-counting.
func TestRDMAChaosBeyondBudgetDegrades(t *testing.T) {
	d := runRDMAChaos(t, func(c *Config) {
		c.Plan = window.Tumbling(1) // one sub-window per window: exact reconciliation
		c.plan.rdmaFaults = &faults.RDMASchedule{Seed: 1, PSNDrop: 1.0}
		c.HotThreshold = 1
		c.plan.rdmaReplayDepth = 8
		c.plan.retry = fastRetry(2)
	})
	st := rdmaOf(d).Stats()
	if st.Lost == 0 {
		t.Fatalf("beyond-budget schedule lost nothing: %+v", st)
	}
	if d.Stats().FallbackAFRs == 0 {
		t.Fatal("records still in the replay window must fall back, not vanish")
	}
	totalMissing, totalShed, degraded := 0, 0, 0
	for _, w := range d.Results() {
		if w.MissingAFRs != w.ShedAFRs {
			t.Fatalf("window [%d,%d]: Missing %d != Shed %d — RDMA losses must charge both",
				w.Start, w.End, w.MissingAFRs, w.ShedAFRs)
		}
		if w.MissingAFRs > 0 {
			if !w.Degraded || !w.Incomplete {
				t.Fatalf("lossy window [%d,%d] not marked Degraded+Incomplete: %+v", w.Start, w.End, w)
			}
			degraded++
		}
		totalMissing += w.MissingAFRs
		totalShed += w.ShedAFRs
	}
	if degraded == 0 {
		t.Fatal("no window marked Degraded despite transport losses")
	}
	// Tumbling(1): every sub-window appears in exactly one window, so the
	// window-level accounting must reconcile 1:1 with the transport's
	// loss count.
	if totalMissing != st.Lost {
		t.Fatalf("windows report %d missing AFRs, transport lost %d — accounting does not reconcile",
			totalMissing, st.Lost)
	}
}

// TestRDMAIncompleteSubWindowsMatchesWindows holds Stats.IncompleteSubWindows
// to the windows' own verdict in RDMA mode, with one sub-window per window
// so the two count the same thing. Records the AFR fault schedule drops
// before any verb carries them have no PSN, so recovery never NACKs them,
// yet their sub-windows are Incomplete; PSN gaps that replay cannot close
// but the drain's hand-off delivers leave nothing missing.
func TestRDMAIncompleteSubWindowsMatchesWindows(t *testing.T) {
	for _, tc := range []struct {
		name  string
		lossy bool
		fault func(*Config)
	}{
		{"lost before any verb", true, func(c *Config) {
			spillTracker(c)
			c.plan.afrFaults = &everyThird{}
		}},
		{"gaps the hand-off delivers", false, func(c *Config) {
			c.plan.rdmaFaults = &faults.RDMASchedule{Seed: 1, PSNDrop: 1.0}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := runBatch(t, func(c *Config) {
				c.RDMA = true
				c.Plan = window.Tumbling(1)
				tc.fault(c)
			})
			lossy := 0
			for _, w := range d.Results() {
				if w.MissingAFRs > 0 {
					lossy++
				}
			}
			if (lossy > 0) != tc.lossy || len(d.Results()) != 5 {
				t.Fatalf("%d of %d windows carry MissingAFRs, want lossy=%v over 5", lossy, len(d.Results()), tc.lossy)
			}
			if got := d.Stats().IncompleteSubWindows; got != lossy {
				t.Fatalf("IncompleteSubWindows = %d, want the %d windows that carry MissingAFRs", got, lossy)
			}
		})
	}
}

// TestRDMAChaosFallbackNeverDoubleCounts is the handoff property test:
// over randomized schedules (including ones that force mid-window
// transport switches and genuine loss), no flow's value ever exceeds the
// fault-free run's — a double-counted record would inflate it — and any
// run the transport reports lossless is byte-identical.
func TestRDMAChaosFallbackNeverDoubleCounts(t *testing.T) {
	baseline := runRDMAChaos(t, nil)
	meta := rand.New(rand.NewSource(2026))
	for trial := 0; trial < 12; trial++ {
		sched := &faults.RDMASchedule{
			Seed:      meta.Uint64(),
			VerbError: meta.Float64() * 0.4,
			PSNDrop:   meta.Float64() * 0.6,
			QPError:   faults.Fault{Prob: meta.Float64() * 0.4},
		}
		depth := 0 // default (deep) window
		if meta.Intn(2) == 1 {
			depth = 4 + meta.Intn(12) // shallow: forces evictions
		}
		d := runRDMAChaos(t, func(c *Config) {
			c.plan.rdmaFaults = sched
			c.plan.rdmaReplayDepth = depth
			c.plan.retry = fastRetry(2)
		})
		st := rdmaOf(d).Stats()
		if st.Lost == 0 {
			if !reflect.DeepEqual(baseline.Results(), d.Results()) {
				t.Fatalf("trial %d (depth %d): lossless run not byte-identical", trial, depth)
			}
			continue
		}
		base, got := baseline.Results(), d.Results()
		if len(base) != len(got) {
			t.Fatalf("trial %d: %d windows vs baseline %d", trial, len(got), len(base))
		}
		for i, w := range got {
			for k, v := range w.Values {
				if bv := base[i].Values[k]; v > bv {
					t.Fatalf("trial %d window [%d,%d]: flow %v counted %d > fault-free %d — double-counted across the handoff",
						trial, w.Start, w.End, k, v, bv)
				}
			}
			if w.MissingAFRs > 0 && !w.Degraded {
				t.Fatalf("trial %d: lossy window [%d,%d] not flagged: %+v", trial, w.Start, w.End, w)
			}
		}
	}
}

// TestRDMAChaosFailoverReregisters integrates the transport with the hot
// standby: a scheduled primary crash mid-collection promotes the standby,
// which owns fresh memory — the transport must re-register its region,
// rebuild the AddressMAT, and replay the in-flight sub-window's verbs
// into the new registration, keeping the run byte-identical to a
// crash-free one.
func TestRDMAChaosFailoverReregisters(t *testing.T) {
	baseline := runRDMAChaos(t, nil)
	d := runRDMAChaos(t, func(c *Config) {
		c.CheckpointDir = t.TempDir()
		c.Shards = 4
		c.Standby = true
		c.plan.crash = crashes(2)
	})
	if d.Stats().Failovers != 1 {
		t.Fatalf("failovers = %d, want 1", d.Stats().Failovers)
	}
	st := rdmaOf(d).Stats()
	if st.Reregistrations == 0 {
		t.Fatal("promoted standby never re-registered the memory region")
	}
	if st.Lost != 0 {
		t.Fatalf("failover lost %d records despite the replay window", st.Lost)
	}
	if !reflect.DeepEqual(baseline.Results(), d.Results()) {
		t.Fatalf("failover run differs from crash-free run:\ncrash-free: %+v\nfailover:   %+v",
			baseline.Results(), d.Results())
	}
}

// TestRDMAChaosDeterministic: the same schedule must produce the same
// run — RDMA fault schedules are reproducible test cases, not flakes.
func TestRDMAChaosDeterministic(t *testing.T) {
	run := func() *Deployment {
		return runRDMAChaos(t, func(c *Config) {
			c.plan.rdmaFaults = &faults.RDMASchedule{Seed: 5,
				VerbError: 0.2, PSNDrop: 0.2,
				QPError: faults.Fault{Prob: 0.3}}
		})
	}
	d1, d2 := run(), run()
	if rdmaOf(d1).Stats() != rdmaOf(d2).Stats() {
		t.Fatalf("same schedule, different transport stats:\n%+v\n%+v", rdmaOf(d1).Stats(), rdmaOf(d2).Stats())
	}
	if d1.Stats() != d2.Stats() {
		t.Fatalf("same schedule, different run stats:\n%+v\n%+v", d1.Stats(), d2.Stats())
	}
	if !reflect.DeepEqual(d1.Results(), d2.Results()) {
		t.Fatal("same schedule, different window results")
	}
}

// TestRDMADurableRunsByteIdentical: two identical RDMA runs with
// durability on write identical WAL segments. The WAL logs records in
// the order the boundary drain hands them over, so this pins the hot
// readback to a run-independent order (first write, not map iteration)
// — with dozens of hot keys per boundary, any other order differs between
// two runs with near certainty. Each boundary's checkpoint deletes the
// segments it covers, so the spy file system keeps their bytes.
func TestRDMADurableRunsByteIdentical(t *testing.T) {
	run := func() (map[string][]byte, Stats) {
		cfg := freqConfig(window.SlidingPlan(3, 1), 25, true)
		cfg.plan.retry = fastRetry(4)
		cfg.CheckpointDir = t.TempDir()
		cfg.Shards = 1 // one WAL group per boundary: order fully visible
		cfg.HotThreshold = 2
		spy := &spyFS{wal: make(map[string][]byte)}
		cfg.plan.durable.FS = spy
		d := newDisk(t, cfg)
		d.RunFor(chaosTrace(), 500*ms)
		d.CloseDurability()
		files, err := filepath.Glob(filepath.Join(cfg.CheckpointDir, "wal-*.log"))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files { // what the last checkpoint left on disk
			b, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			spy.wal[filepath.Base(f)] = b
		}
		if len(spy.wal) == 0 {
			t.Fatalf("no WAL segments written in %s", cfg.CheckpointDir)
		}
		return spy.wal, d.Stats()
	}
	wal1, st1 := run()
	wal2, st2 := run()
	if st1.HotAFRs < 40 {
		t.Fatalf("only %d hot AFRs: the run does not exercise the hot readback", st1.HotAFRs)
	}
	if st1 != st2 {
		t.Fatalf("identical runs, different stats:\n%+v\n%+v", st1, st2)
	}
	if len(wal1) != len(wal2) {
		t.Fatalf("identical runs wrote %d and %d WAL segments", len(wal1), len(wal2))
	}
	for name, b := range wal1 {
		if !bytes.Equal(b, wal2[name]) {
			t.Fatalf("WAL segment %s differs between two identical runs", name)
		}
	}
}

// benchRDMATrace builds a deterministic 5-sub-window, 40-flow trace for
// the RDMA collection benchmarks (sub-windows are 100 ms).
func benchRDMATrace() []packet.Packet {
	var pkts []packet.Packet
	for swi := int64(0); swi < 5; swi++ {
		at := swi*100*ms + 50*ms
		for f := 1; f <= 40; f++ {
			n := 3 + (f+int(swi)*5)%7
			for i := 0; i < n; i++ {
				pkts = append(pkts, packet.Packet{
					Key:  packet.FlowKey{SrcIP: uint32(f), DstIP: 9, SrcPort: uint16(f), DstPort: 443, Proto: packet.ProtoTCP},
					Size: 100, Seq: uint32(i), Time: at + int64(i)*ms,
				})
			}
		}
	}
	return pkts
}

// benchRDMACollect runs the full RDMA deployment over the fixed trace
// once per iteration under the given transport fault schedule.
func benchRDMACollect(b *testing.B, sched *faults.RDMASchedule) {
	pkts := benchRDMATrace()
	cfg := freqConfig(window.SlidingPlan(3, 1), 25, true)
	cfg.plan.rdmaFaults = sched
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res := d.RunFor(pkts, 500*ms); len(res) == 0 {
			b.Fatal("no windows produced")
		}
	}
}

// BenchmarkRDMACollect measures the RDMA collection path end to end —
// fault-free against a transport that is actively recovering (PSN drops
// feeding the replay loop plus boundary QP errors forcing fallback):
// recovery machinery must not tax the healthy path.
func BenchmarkRDMACollect(b *testing.B) {
	b.Run("fault-free", func(b *testing.B) {
		benchRDMACollect(b, nil)
	})
	b.Run("recovering", func(b *testing.B) {
		benchRDMACollect(b, &faults.RDMASchedule{Seed: 1,
			VerbError: 0.15, PSNDrop: 0.20,
			QPError: faults.Fault{Prob: 0.3}})
	})
}
