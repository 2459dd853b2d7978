package baseline

import (
	"testing"

	"omniwindow/internal/afr"
	"omniwindow/internal/packet"
	"omniwindow/internal/sketch"
	"omniwindow/internal/trace"
)

const ms = trace.Millisecond

func fk(i int) packet.FlowKey {
	return packet.FlowKey{SrcIP: uint32(i), DstPort: 80, Proto: packet.ProtoTCP}
}

func mkTrace(flow, n int, start, spread int64) []packet.Packet {
	out := make([]packet.Packet, n)
	for i := range out {
		var off int64
		if n > 1 {
			off = spread * int64(i) / int64(n-1)
		}
		out[i] = packet.Packet{Key: fk(flow), Size: 100, Time: start + off}
	}
	return out
}

func merge(a ...[]packet.Packet) []packet.Packet {
	var all []packet.Packet
	for _, s := range a {
		all = append(all, s...)
	}
	// insertion sort by time (small test traces)
	for i := 1; i < len(all); i++ {
		for j := i; j > 0 && all[j].Time < all[j-1].Time; j-- {
			all[j], all[j-1] = all[j-1], all[j]
		}
	}
	return all
}

func countEval(win []packet.Packet) map[packet.FlowKey]uint64 {
	m := make(map[packet.FlowKey]uint64)
	for i := range win {
		m[win[i].Key]++
	}
	return m
}

func TestSpans(t *testing.T) {
	tw := Spans(1000, 250, 250)
	if len(tw) != 4 || tw[3].Start != 750 || tw[3].End != 1000 {
		t.Fatalf("tumbling spans: %+v", tw)
	}
	sl := Spans(1000, 500, 100)
	if len(sl) != 6 || sl[5].Start != 500 {
		t.Fatalf("sliding spans: %+v", sl)
	}
}

func TestSpansValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Spans(100, 0, 10)
}

func TestSlice(t *testing.T) {
	pkts := mkTrace(1, 10, 0, 900)
	got := Slice(pkts, 200, 500)
	for i := range got {
		if got[i].Time < 200 || got[i].Time >= 500 {
			t.Fatalf("slice returned out-of-range packet at %d", got[i].Time)
		}
	}
	if len(Slice(pkts, 5000, 6000)) != 0 {
		t.Fatal("empty slice expected")
	}
}

func TestRunIdealTumblingVsSlidingOnBoundaryBurst(t *testing.T) {
	// Figure 1: a 100-packet burst straddling the 500 ms boundary. Each
	// tumbling window sees ~half; the sliding window positioned over the
	// burst sees all of it.
	burst := mkTrace(7, 100, 450*ms, 100*ms)
	duration := int64(1500 * ms)
	itw := RunIdeal(burst, duration, 500*ms, 500*ms, countEval)
	for _, w := range itw {
		if v := w.Values[fk(7)]; v > 60 {
			t.Fatalf("tumbling window saw %d burst packets — test premise broken", v)
		}
	}
	isw := RunIdeal(burst, duration, 500*ms, 100*ms, countEval)
	var best uint64
	for _, w := range isw {
		if v := w.Values[fk(7)]; v > best {
			best = v
		}
	}
	if best < 95 {
		t.Fatalf("sliding window missed the burst: best=%d", best)
	}
}

func exactFactory(seed uint64) afr.StateApp {
	return &exactApp{counts: make(map[packet.FlowKey]uint64)}
}

type exactApp struct {
	counts map[packet.FlowKey]uint64
}

func (a *exactApp) Update(p *packet.Packet)         { a.counts[p.Key]++ }
func (a *exactApp) Query(k packet.FlowKey) afr.Attr { return afr.Attr{Value: a.counts[k]} }
func (a *exactApp) Slots() int                      { return 1 }
func (a *exactApp) ResetSlot(i int) {
	if i == 0 {
		a.counts = make(map[packet.FlowKey]uint64)
	}
}

func TestTW2MatchesIdealWithExactState(t *testing.T) {
	pkts := merge(mkTrace(1, 50, 100*ms, 300*ms), mkTrace(2, 80, 600*ms, 300*ms))
	duration := int64(1000 * ms)
	tw2 := RunTumbling(pkts, duration, TumblingConfig{WindowNs: 500 * ms, Regions: 2}, exactFactory, nil)
	ideal := RunIdeal(pkts, duration, 500*ms, 500*ms, countEval)
	if len(tw2) != len(ideal) {
		t.Fatalf("window counts differ: %d vs %d", len(tw2), len(ideal))
	}
	for i := range tw2 {
		for k, v := range ideal[i].Values {
			if tw2[i].Values[k] != v {
				t.Fatalf("window %d key %v: %d vs %d", i, k, tw2[i].Values[k], v)
			}
		}
	}
}

func TestTW1BlackoutLosesTraffic(t *testing.T) {
	// All of flow 1's packets land right after the second window starts,
	// inside TW1's C&R blackout.
	pkts := merge(mkTrace(1, 50, 510*ms, 20*ms), mkTrace(2, 50, 700*ms, 100*ms))
	duration := int64(1000 * ms)
	cfg := TumblingConfig{WindowNs: 500 * ms, Regions: 1, CRTimeNs: 100 * ms}
	tw1 := RunTumbling(pkts, duration, cfg, exactFactory, nil)
	if got := tw1[1].Values[fk(1)]; got != 0 {
		t.Fatalf("blackout traffic measured: %d", got)
	}
	if got := tw1[1].Values[fk(2)]; got != 50 {
		t.Fatalf("post-blackout traffic lost: %d", got)
	}
	// TW2 with the same C&R time loses nothing.
	cfg.Regions = 2
	tw2 := RunTumbling(pkts, duration, cfg, exactFactory, nil)
	if got := tw2[1].Values[fk(1)]; got != 50 {
		t.Fatalf("TW2 lost blackout traffic: %d", got)
	}
}

func TestTW1FirstWindowHasNoBlackout(t *testing.T) {
	pkts := mkTrace(1, 20, 10*ms, 50*ms)
	cfg := TumblingConfig{WindowNs: 500 * ms, Regions: 1, CRTimeNs: 100 * ms}
	tw1 := RunTumbling(pkts, 500*ms, cfg, exactFactory, nil)
	if got := tw1[0].Values[fk(1)]; got != 20 {
		t.Fatalf("first window lost traffic: %d", got)
	}
}

func TestRunTumblingKeyExtractor(t *testing.T) {
	pkts := merge(mkTrace(1, 5, 0, 100*ms), mkTrace(2, 5, 0, 100*ms))
	hostFactory := func(seed uint64) afr.StateApp {
		a := &exactApp{counts: make(map[packet.FlowKey]uint64)}
		return &hostApp{exactApp: a}
	}
	out := RunTumbling(pkts, 500*ms, TumblingConfig{WindowNs: 500 * ms, Regions: 2}, hostFactory,
		func(p *packet.Packet) (packet.FlowKey, bool) { return p.Key.DstHostKey(), true })
	host := packet.FlowKey{Proto: packet.ProtoTCP}
	if got := out[0].Values[host]; got != 10 {
		t.Fatalf("host aggregation = %d want 10", got)
	}
}

type hostApp struct{ *exactApp }

func (a *hostApp) Update(p *packet.Packet) { a.counts[p.Key.DstHostKey()]++ }

func TestRunTumblingRegionValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	RunTumbling(nil, 100, TumblingConfig{WindowNs: 10, Regions: 3}, exactFactory, nil)
}

func TestDetectThreshold(t *testing.T) {
	w := WindowOutput{Values: map[packet.FlowKey]uint64{fk(1): 5, fk(2): 10}}
	d := w.Detect(10)
	if d[fk(1)] || !d[fk(2)] {
		t.Fatalf("detect = %v", d)
	}
}

func TestRunSlidingSketchOverestimates(t *testing.T) {
	// Flow emits 100 packets in [0, 490 ms) and a 5-packet trickle in
	// [510, 990 ms). A Sliding Sketch queried for the window [500,1000)
	// reports the stale first-window mass on top of the trickle (its
	// documented overestimation); the truth for that window is 5.
	pkts := merge(mkTrace(3, 100, 0, 490*ms), mkTrace(3, 5, 510*ms, 480*ms))
	duration := int64(1000 * ms)
	s := sketch.NewSliding(sketch.NewCountMin(4, 1024, 1), sketch.NewCountMin(4, 1024, 1))
	out := RunSlidingSketch(pkts, duration, SlidingSketchConfig{WindowNs: 500 * ms, SlideNs: 100 * ms}, s)
	var lastVal uint64
	for _, w := range out {
		if w.Start == 500*ms {
			lastVal = w.Values[fk(3)]
		}
	}
	if lastVal < 95 {
		t.Fatalf("sliding sketch should overreport stale window: %d", lastVal)
	}
	// First span [0,500) reports the true mass.
	if out[0].Values[fk(3)] < 95 {
		t.Fatalf("current-window mass missing: %d", out[0].Values[fk(3)])
	}
}

func TestRunSlidingSketchRotationExpires(t *testing.T) {
	// Mass older than two rotations disappears.
	pkts := mkTrace(4, 100, 0, 400*ms)
	duration := int64(2000 * ms)
	s := sketch.NewSliding(sketch.NewCountMin(4, 1024, 2), sketch.NewCountMin(4, 1024, 2))
	out := RunSlidingSketch(pkts, duration, SlidingSketchConfig{WindowNs: 500 * ms, SlideNs: 500 * ms}, s)
	if len(out) != 4 {
		t.Fatalf("windows = %d", len(out))
	}
	if v := out[3].Values[fk(4)]; v != 0 {
		t.Fatalf("ancient mass survived: %d", v)
	}
}
