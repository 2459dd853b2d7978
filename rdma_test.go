package omniwindow

import (
	"testing"

	"omniwindow/internal/rdma"
	"omniwindow/internal/window"
)

// rdmaOf reaches the deployment's RDMA transport (white-box).
func rdmaOf(d *Deployment) *rdma.Transport { return d.transport.(*rdmaPath).tr }

// TestRDMAColdBufferOverflowFallsBack forces the cold-key append buffer to
// overflow: records must fall back to the packet path instead of being
// lost, so window values stay exact.
func TestRDMAColdBufferOverflowFallsBack(t *testing.T) {
	cfg := freqConfig(window.Tumbling(1), 1, true)
	cfg.AddressMATSize = 4 // tiny MAT
	cfg.HotThreshold = 100 // nothing becomes hot
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Rewire the transport onto an 8-record cold buffer (white-box),
	// keeping the deployment's shed hook so overflow is charged.
	d.transport.(*rdmaPath).tr = rdma.NewTransport(rdma.TransportConfig{
		Rows: cfg.AddressMATSize, Lanes: cfg.Plan.Size, BufCap: 8,
		OnShed: func(sw uint64, n int) { d.noteRDMAShed(sw, n) },
	})

	flows := make([]int, 40)
	for i := range flows {
		flows[i] = i + 1
	}
	pkts := burstTrace(map[int64][]int{50 * ms: flows}, 5)
	results := d.RunFor(pkts, 100*ms)
	if len(results) == 0 {
		t.Fatal("no windows")
	}
	got := map[int]uint64{}
	for _, w := range results {
		for i := range flows {
			got[flows[i]] += w.Values[fk(flows[i])]
		}
	}
	for _, f := range flows {
		if got[f] != 5 {
			t.Fatalf("flow %d value = %d want 5 (overflowed record lost)", f, got[f])
		}
	}
	// The tiny buffer must actually have overflowed for this test to
	// prove anything: 40 AFRs >> 8 slots.
	if d.stats.ColdAFRs >= 40 {
		t.Fatalf("cold buffer never overflowed (cold=%d)", d.stats.ColdAFRs)
	}
	if st := rdmaOf(d).Stats(); st.Overflows == 0 || d.Stats().FallbackAFRs != st.Overflows {
		t.Fatalf("overflow fallback not accounted: transport %+v, deployment fallbacks %d",
			st, d.Stats().FallbackAFRs)
	}
	// Overflow charges shed accounting (pressure), but the fallback
	// repaired every record, so the windows are exact — Shed > 0 with
	// nothing Missing, not Degraded.
	for _, w := range results {
		if w.ShedAFRs == 0 {
			t.Fatalf("window [%d,%d] overflow not charged to ShedAFRs", w.Start, w.End)
		}
		if w.Degraded || w.MissingAFRs != 0 {
			t.Fatalf("repaired overflow marked window degraded: %+v", w)
		}
	}
}

// TestRDMAHotPromotionLifecycle drives a key through cold → hot → demoted.
// Hotness decays once per completed window, so a key must recur within a
// window (HotThreshold sub-window appearances) to earn a MAT entry and
// must keep recurring to keep it.
func TestRDMAHotPromotionLifecycle(t *testing.T) {
	cfg := freqConfig(window.Tumbling(2), 1, true)
	cfg.HotThreshold = 2
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Flow 1 recurs in four consecutive sub-windows (two full windows),
	// then goes quiet while flow 2 appears once.
	pkts := burstTrace(map[int64][]int{
		50 * ms:  {1},
		150 * ms: {1},
		250 * ms: {1},
		350 * ms: {1},
		450 * ms: {2},
	}, 10)
	d.RunFor(pkts, 600*ms)
	st := d.Stats()
	if st.HotAFRs == 0 {
		t.Fatalf("recurring key never promoted: %+v", st)
	}
	if st.ColdAFRs == 0 {
		t.Fatal("first sightings should travel cold")
	}
	// Flow 2 appeared once: never hot. Flow 1 may or may not have been
	// demoted by the trailing decay, but the MAT must hold at most it.
	if rdmaOf(d).MATLen() > 1 {
		t.Fatalf("address MAT holds %d entries, want <= 1", rdmaOf(d).MATLen())
	}
	// Totals survive both paths.
	total := uint64(0)
	for _, w := range d.Results() {
		total += w.Values[fk(1)] + w.Values[fk(2)]
	}
	if total != 50 {
		t.Fatalf("total measured = %d want 50", total)
	}
}
