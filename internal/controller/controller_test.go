package controller

import (
	"math/rand"
	"strings"
	"testing"

	"omniwindow/internal/afr"
	"omniwindow/internal/packet"
	"omniwindow/internal/window"
)

func fk(i int) packet.FlowKey {
	return packet.FlowKey{SrcIP: uint32(i), DstPort: 443, Proto: packet.ProtoTCP}
}

func afrPkt(recs ...packet.AFR) *packet.Packet {
	return &packet.Packet{OW: packet.OWHeader{Flag: packet.OWAFR, AFRs: recs}}
}

func rec(key, sw, attr, seq int) packet.AFR {
	return packet.AFR{Key: fk(key), SubWindow: uint64(sw), Attr: uint64(attr), Seq: uint32(seq)}
}

func TestTumblingWindowMergesSubWindows(t *testing.T) {
	// The motivating §4.1 example: 60 packets in one sub-window, 80 in
	// the next; threshold 100. Neither sub-window alone is heavy but the
	// merged window must report the flow.
	c := New(Config{Plan: window.Tumbling(2), Kind: afr.Frequency, Threshold: 100})
	c.Receive(afrPkt(rec(1, 0, 60, 0)))
	if res := c.FinishSubWindow(0); len(res) != 0 {
		t.Fatal("window ended early")
	}
	c.Receive(afrPkt(rec(1, 1, 80, 0)))
	res := c.FinishSubWindow(1)
	if len(res) != 1 {
		t.Fatalf("windows = %d", len(res))
	}
	if len(res[0].Detected) != 1 || res[0].Detected[0] != fk(1) {
		t.Fatalf("detected = %v", res[0].Detected)
	}
	if res[0].Start != 0 || res[0].End != 1 {
		t.Fatalf("window range = [%d,%d]", res[0].Start, res[0].End)
	}
}

func TestTumblingWindowsIndependent(t *testing.T) {
	// After a tumbling window is processed, its sub-windows retire:
	// mass must not leak into the next window.
	c := New(Config{Plan: window.Tumbling(2), Kind: afr.Frequency, Threshold: 100, CaptureValues: true})
	c.Receive(afrPkt(rec(1, 0, 70, 0), rec(1, 1, 70, 0)))
	c.FinishSubWindow(0)
	res := c.FinishSubWindow(1)
	if len(res[0].Detected) != 1 {
		t.Fatal("first window should detect")
	}
	c.Receive(afrPkt(rec(1, 2, 10, 0), rec(1, 3, 10, 0)))
	c.FinishSubWindow(2)
	res = c.FinishSubWindow(3)
	if len(res[0].Detected) != 0 {
		t.Fatalf("stale mass leaked: %v (values %v)", res[0].Detected, res[0].Values)
	}
	if res[0].Values[fk(1)] != 20 {
		t.Fatalf("second window value = %d want 20", res[0].Values[fk(1)])
	}
}

func TestSlidingWindowOverlap(t *testing.T) {
	// Figure 1: a burst straddling a tumbling boundary is caught by the
	// sliding window. Window = 2 sub-windows, slide = 1.
	c := New(Config{Plan: window.SlidingPlan(2, 1), Kind: afr.Frequency, Threshold: 100})
	c.Receive(afrPkt(rec(7, 0, 30, 0)))
	c.FinishSubWindow(0)
	c.Receive(afrPkt(rec(7, 1, 90, 0)))
	res := c.FinishSubWindow(1) // window [0,1]: 120 >= 100
	if len(res) != 1 || len(res[0].Detected) != 1 {
		t.Fatalf("burst missed: %+v", res)
	}
	c.Receive(afrPkt(rec(7, 2, 30, 0)))
	res = c.FinishSubWindow(2) // window [1,2]: 120 >= 100
	if len(res) != 1 || len(res[0].Detected) != 1 {
		t.Fatalf("second sliding window missed: %+v", res)
	}
	c.Receive(afrPkt(rec(7, 3, 1, 0)))
	res = c.FinishSubWindow(3) // window [2,3]: 31 < 100
	if len(res[0].Detected) != 0 {
		t.Fatalf("stale detection: %+v", res[0].Detected)
	}
}

func TestSlidingEvictionRemovesEmptyFlows(t *testing.T) {
	c := New(Config{Plan: window.SlidingPlan(2, 1), Kind: afr.Frequency, Threshold: 1000})
	c.Receive(afrPkt(rec(1, 0, 5, 0)))
	c.Receive(afrPkt(rec(2, 0, 5, 1), rec(2, 1, 5, 0)))
	c.FinishSubWindow(0)
	if c.TableSize() != 2 {
		t.Fatalf("table size = %d", c.TableSize())
	}
	// Window [0,1] ends; sub-window 0 retires: flow 1 (only in sub-window
	// 0) is deleted, flow 2 survives with its sub-window-1 contribution.
	c.FinishSubWindow(1)
	if c.TableSize() != 1 {
		t.Fatalf("table size after first eviction = %d", c.TableSize())
	}
	// Window [1,2] ends; sub-window 1 retires; flow 2 now empty.
	c.FinishSubWindow(2)
	if c.TableSize() != 0 {
		t.Fatalf("empty flow not deleted: table size = %d", c.TableSize())
	}
}

func TestMaxMergeAcrossSubWindows(t *testing.T) {
	c := New(Config{Plan: window.Tumbling(3), Kind: afr.Max, Threshold: 0, CaptureValues: true})
	c.Receive(afrPkt(rec(1, 0, 5, 0), rec(1, 1, 11, 0), rec(1, 2, 7, 0)))
	c.FinishSubWindow(0)
	c.FinishSubWindow(1)
	res := c.FinishSubWindow(2)
	if res[0].Values[fk(1)] != 11 {
		t.Fatalf("max = %d", res[0].Values[fk(1)])
	}
}

func TestMinMergeEvictionRecomputes(t *testing.T) {
	// Min is not subtractable: eviction must recompute from surviving
	// contributions.
	c := New(Config{Plan: window.SlidingPlan(2, 1), Kind: afr.Min, Threshold: 0, CaptureValues: true})
	c.Receive(afrPkt(rec(1, 0, 3, 0)))
	c.FinishSubWindow(0)
	c.Receive(afrPkt(rec(1, 1, 10, 0)))
	res := c.FinishSubWindow(1)
	if res[0].Values[fk(1)] != 3 {
		t.Fatalf("min over [0,1] = %d", res[0].Values[fk(1)])
	}
	c.Receive(afrPkt(rec(1, 2, 8, 0)))
	res = c.FinishSubWindow(2) // sub-window 0 (value 3) evicted
	if res[0].Values[fk(1)] != 8 {
		t.Fatalf("min over [1,2] = %d want 8", res[0].Values[fk(1)])
	}
}

func TestDistinctionMergeThenCount(t *testing.T) {
	c := New(Config{Plan: window.Tumbling(2), Kind: afr.Distinction, Threshold: 0, CaptureValues: true})
	set := []packet.Summary{{0xFF, 0, 0, 0}}
	a := afrPkt(rec(1, 0, 0, 0))
	a.OW.Summaries = set
	b := afrPkt(rec(1, 1, 0, 0))
	b.OW.Summaries = set // identical set
	c.Receive(a)
	c.FinishSubWindow(0)
	c.Receive(b)
	res := c.FinishSubWindow(1)
	one := New(Config{Plan: window.Tumbling(1), Kind: afr.Distinction, Threshold: 0, CaptureValues: true})
	one.Receive(a)
	ref := one.FinishSubWindow(0)
	if res[0].Values[fk(1)] != ref[0].Values[fk(1)] {
		t.Fatalf("identical distinct sets double-counted: %d vs %d",
			res[0].Values[fk(1)], ref[0].Values[fk(1)])
	}
}

func TestDuplicateAFRsIgnored(t *testing.T) {
	c := New(Config{Plan: window.Tumbling(1), Kind: afr.Frequency, Threshold: 0, CaptureValues: true})
	c.Receive(afrPkt(rec(1, 0, 10, 0)))
	c.Receive(afrPkt(rec(1, 0, 10, 0))) // retransmitted duplicate
	res := c.FinishSubWindow(0)
	if res[0].Values[fk(1)] != 10 {
		t.Fatalf("duplicate absorbed twice: %d", res[0].Values[fk(1)])
	}
}

func TestMissingSeqsAndTrigger(t *testing.T) {
	c := New(Config{Plan: window.Tumbling(1), Kind: afr.Frequency})
	trigger := &packet.Packet{OW: packet.OWHeader{Flag: packet.OWTrigger, SubWindow: 0, KeyCount: 3}}
	c.Receive(trigger)
	c.Receive(afrPkt(rec(1, 0, 1, 0), rec(2, 0, 1, 2)))
	missing := c.MissingSeqs(0)
	if len(missing) != 1 || missing[0] != 1 {
		t.Fatalf("missing = %v", missing)
	}
	c.Receive(afrPkt(rec(3, 0, 1, 1)))
	if m := c.MissingSeqs(0); m != nil {
		t.Fatalf("still missing: %v", m)
	}
	if c.MissingSeqs(42) != nil {
		t.Fatal("unknown sub-window should report nothing")
	}
}

func TestIngestAFRsDirect(t *testing.T) {
	c := New(Config{Plan: window.Tumbling(1), Kind: afr.Frequency, Threshold: 5, CaptureValues: true})
	c.IngestAFRs([]packet.AFR{rec(1, 0, 7, 0), rec(1, 0, 7, 0)}) // dup seq
	res := c.FinishSubWindow(0)
	if res[0].Values[fk(1)] != 7 {
		t.Fatalf("value = %d", res[0].Values[fk(1)])
	}
}

func TestDetectedDeterministicOrder(t *testing.T) {
	c := New(Config{Plan: window.Tumbling(1), Kind: afr.Frequency, Threshold: 1})
	c.Receive(afrPkt(rec(3, 0, 5, 0), rec(1, 0, 5, 1), rec(2, 0, 5, 2)))
	res := c.FinishSubWindow(0)
	for i := 1; i < len(res[0].Detected); i++ {
		if res[0].Detected[i].SrcIP < res[0].Detected[i-1].SrcIP {
			t.Fatalf("unsorted output: %v", res[0].Detected)
		}
	}
}

func TestOpTimesRecorded(t *testing.T) {
	c := New(Config{Plan: window.SlidingPlan(2, 1), Kind: afr.Frequency, Threshold: 1})
	for sw := 0; sw < 3; sw++ {
		recs := make([]packet.AFR, 200)
		for i := range recs {
			recs[i] = rec(i, sw, 1, i)
		}
		c.Receive(afrPkt(recs...))
		c.FinishSubWindow(uint64(sw))
	}
	t2 := c.Times(2)
	if t2.Insert <= 0 || t2.Merge <= 0 || t2.Process <= 0 || t2.Evict <= 0 {
		t.Fatalf("missing timings: %+v", t2)
	}
	if t2.Total() < t2.Insert {
		t.Fatal("total inconsistent")
	}
	if c.Times(99) != (OpTimes{}) {
		t.Fatal("unknown sub-window should have zero times")
	}
}

func TestInvalidPlanPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Config{Plan: window.Plan{Size: 0, Slide: 1}})
}

// TestFinishSkipPanics: sub-windows finish in order. Finishing one past
// LastFinished+1 is a caller bug, and the panic names both sub-windows;
// a re-finish stays a no-op and the first finish may be any sub-window.
func TestFinishSkipPanics(t *testing.T) {
	c := New(Config{Plan: window.SlidingPlan(3, 1), Kind: afr.Frequency, Shards: 2})
	c.FinishSubWindow(4)
	c.FinishSubWindow(5)
	if out := c.FinishSubWindow(4); out != nil {
		t.Fatalf("re-finishing sub-window 4 emitted %+v", out)
	}
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "FinishSubWindow(8)") || !strings.Contains(msg, "sub-window 6") {
			t.Fatalf("panic %q, want one naming sub-windows 8 and 6", msg)
		}
		if last, _ := c.LastFinished(); last != 5 {
			t.Fatalf("LastFinished = %d after the refused skip, want 5", last)
		}
	}()
	c.FinishSubWindow(8)
}

func TestHotTrackerPromotion(t *testing.T) {
	h := NewHotTracker(8, 3)
	if h.Observe(fk(1)) || h.Observe(fk(1)) {
		t.Fatal("promoted before threshold")
	}
	if !h.Observe(fk(1)) {
		t.Fatal("not promoted at threshold")
	}
	if h.Observe(fk(1)) {
		t.Fatal("promoted twice")
	}
	if !h.IsHot(fk(1)) || h.HotCount() != 1 {
		t.Fatal("hot state wrong")
	}
}

func TestHotTrackerCapacity(t *testing.T) {
	h := NewHotTracker(2, 1)
	h.Observe(fk(1))
	h.Observe(fk(2))
	if h.Observe(fk(3)) {
		t.Fatal("promoted beyond capacity")
	}
	if h.HotCount() != 2 {
		t.Fatalf("hot count = %d", h.HotCount())
	}
}

func TestHotTrackerDecayDemotes(t *testing.T) {
	h := NewHotTracker(8, 4)
	for i := 0; i < 4; i++ {
		h.Observe(fk(1))
	}
	if !h.IsHot(fk(1)) {
		t.Fatal("not hot")
	}
	demoted := h.Decay() // 4 -> 2 < threshold
	if len(demoted) != 1 || demoted[0] != fk(1) {
		t.Fatalf("demoted = %v", demoted)
	}
	if h.IsHot(fk(1)) {
		t.Fatal("still hot after demotion")
	}
	// Full decay forgets the key entirely.
	h.Decay()
	if h.Observe(fk(1)) {
		t.Fatal("stale count survived full decay")
	}
}

// TestHotTrackerObserveZeroAllocs: observing a key the tracker already
// holds — every recurring flow, every sub-window — must not allocate.
func TestHotTrackerObserveZeroAllocs(t *testing.T) {
	h := NewHotTracker(8, 3)
	for i := 0; i < 64; i++ {
		h.Observe(fk(i))
	}
	if got := testing.AllocsPerRun(256, func() { h.Observe(fk(7)) }); got != 0 {
		t.Fatalf("Observe on a seen key allocates %.1f allocs/op, want 0", got)
	}
}

// TestHotTrackerObserveAFRsZeroAllocs: a batch of keys the tracker holds
// observes without allocating, and so does a steady-state Decay that
// demotes: its result is the tracker's reused buffer.
func TestHotTrackerObserveAFRsZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is perturbed by the race detector")
	}
	const batch = 128
	h := NewHotTracker(batch, 3)
	recs := make([]packet.AFR, batch)
	for i := range recs {
		recs[i].Key = fk(i)
	}
	promote := make([]bool, batch)
	// Three observations a window promote every key; the decay halves
	// each count under the threshold and demotes every key again.
	window := func() {
		for i := 0; i < 3; i++ {
			h.ObserveAFRs(recs, promote)
		}
		if got := len(h.Decay()); got != batch {
			t.Fatalf("decay demoted %d keys, want %d", got, batch)
		}
	}
	window()
	if got := testing.AllocsPerRun(64, window); got != 0 {
		t.Fatalf("steady-state window of observes and a demoting decay allocates %.1f allocs/op, want 0", got)
	}
	if got := testing.AllocsPerRun(64, func() { h.ObserveAFRs(recs, promote) }); got != 0 {
		t.Fatalf("ObserveAFRs on seen keys allocates %.1f allocs/op, want 0", got)
	}
}

// TestEvictionEqualsRecomputeProperty: for random contribution streams and
// random sliding plans, the incrementally evicted merged value always
// equals a from-scratch recomputation over the surviving sub-windows.
func TestEvictionEqualsRecomputeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	kinds := []afr.Kind{afr.Frequency, afr.Max, afr.Min, afr.Existence}
	for trial := 0; trial < 20; trial++ {
		size := rng.Intn(4) + 2
		slide := rng.Intn(size) + 1
		kind := kinds[rng.Intn(len(kinds))]
		c := New(Config{Plan: window.SlidingPlan(size, slide), Kind: kind, Threshold: 1, CaptureValues: true})

		nSub := size + slide*4
		contribs := make(map[packet.FlowKey][][2]uint64) // key -> (sw, attr)
		for sw := 0; sw < nSub; sw++ {
			var recs []packet.AFR
			for f := 0; f < 6; f++ {
				if rng.Intn(2) == 0 {
					continue
				}
				attr := uint64(rng.Intn(50) + 1)
				recs = append(recs, packet.AFR{Key: fk(f), SubWindow: uint64(sw), Attr: attr, Seq: uint32(f)})
				contribs[fk(f)] = append(contribs[fk(f)], [2]uint64{uint64(sw), attr})
			}
			c.Receive(afrPkt(recs...))
			for _, w := range c.FinishSubWindow(uint64(sw)) {
				// Recompute every flow's merged value from scratch.
				for f := 0; f < 6; f++ {
					m := afr.NewMerged(kind)
					for _, cb := range contribs[fk(f)] {
						if cb[0] >= w.Start && cb[0] <= w.End {
							m.Absorb(cb[1], packet.Summary{})
						}
					}
					want := uint64(0)
					if m.Seeded() {
						want = m.Value()
					}
					if got := w.Values[fk(f)]; got != want {
						t.Fatalf("trial %d kind %v window [%d,%d] flow %d: got %d want %d",
							trial, kind, w.Start, w.End, f, got, want)
					}
				}
			}
		}
	}
}
