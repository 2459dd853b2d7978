package omniwindow

import (
	"math/bits"
	"testing"
	"time"

	"omniwindow/internal/afr"
	"omniwindow/internal/packet"
	"omniwindow/internal/window"
)

// elementApp is a Distinction app whose summary is an exact per-key
// element bitmap: a packet's element is its Seq mod 256, and the value of
// a key in one sub-window is the bitmap's popcount. Paired with
// popcountCounter, a window's value is the exact number of distinct
// elements the key carried across its sub-windows — the OR of the
// bitmaps, counted once — while the scalar sum of the per-sub-window
// counts over-counts every element that recurs.
type elementApp struct {
	bitmaps map[packet.FlowKey]*[4]uint64
}

func newElementApp(int) afr.StateApp {
	return &elementApp{bitmaps: make(map[packet.FlowKey]*[4]uint64)}
}

func (a *elementApp) Update(p *packet.Packet) {
	b := a.bitmaps[p.Key]
	if b == nil {
		b = new([4]uint64)
		a.bitmaps[p.Key] = b
	}
	e := p.Seq % 256
	b[e/64] |= 1 << (e % 64)
}

func (a *elementApp) Query(k packet.FlowKey) afr.Attr {
	b := a.bitmaps[k]
	if b == nil {
		return afr.Attr{}
	}
	return afr.Attr{Value: popcountCounter(*b), Summary: *b}
}

func (a *elementApp) ResetSlot(int) { clear(a.bitmaps) }
func (a *elementApp) Slots() int    { return 1 }

func popcountCounter(s [4]uint64) uint64 {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return uint64(n)
}

// distinctionConfig deploys elementApp over a sliding plan.
func distinctionConfig(rdmaMode bool) Config {
	return Config{
		SubWindow:       100 * time.Millisecond,
		Plan:            window.SlidingPlan(3, 1),
		Kind:            afr.Distinction,
		DistinctCounter: popcountCounter,
		AppFactory:      newElementApp,
		Slots:           1,
		Tracker:         afr.TrackerConfig{BufferKeys: 1024, BloomBits: 1 << 16, BloomHashes: 3},
		CaptureValues:   true,
		RDMA:            rdmaMode,
		HotThreshold:    2,
	}
}

// distinctionTrace sends 40 flows through sub-windows 0-9, six packets a
// flow a sub-window, whose elements overlap the flow's elements in the
// neighbouring sub-windows: every key recurs (so RDMA promotes it at
// HotThreshold 2) and its windowed OR-count is well below its summed
// per-sub-window counts.
func distinctionTrace() []packet.Packet {
	var pkts []packet.Packet
	for sw := int64(0); sw < 10; sw++ {
		for j := int64(0); j < 6; j++ {
			for f := 1; f <= 40; f++ {
				pkts = append(pkts, packet.Packet{
					Key:  fk(f),
					Size: 100,
					Seq:  uint32(f*7+int(sw)*3+int(j)) % 256,
					Time: sw*100*ms + 5*ms + j*10*ms + int64(f)*10_000,
				})
			}
		}
	}
	return pkts
}

// exactDistinct is each key's distinct element count over sub-windows
// [start, end] of pkts.
func exactDistinct(pkts []packet.Packet, start, end uint64) map[packet.FlowKey]uint64 {
	sets := map[packet.FlowKey]*[4]uint64{}
	for _, p := range pkts {
		if sw := uint64(p.Time / (100 * ms)); sw < start || sw > end {
			continue
		}
		b := sets[p.Key]
		if b == nil {
			b = new([4]uint64)
			sets[p.Key] = b
		}
		e := p.Seq % 256
		b[e/64] |= 1 << (e % 64)
	}
	out := make(map[packet.FlowKey]uint64, len(sets))
	for k, b := range sets {
		out[k] = popcountCounter(*b)
	}
	return out
}

// TestDistinctionSummariesSurviveRDMAAndCrash runs a Distinction app whose
// summaries decide every value through each collection arm: packets, RDMA
// with keys that turn hot, and durable with a crash-restart that replays
// the log. Each arm's windows must equal the independently computed
// OR-counts: a summary lost anywhere between the switch and the table
// leaves a value at the summed count instead.
func TestDistinctionSummariesSurviveRDMAAndCrash(t *testing.T) {
	pkts := distinctionTrace()
	check := func(t *testing.T, ws []WindowResult) {
		t.Helper()
		if len(ws) < 6 {
			t.Fatalf("%d windows, want at least 6", len(ws))
		}
		summed := false
		for _, w := range ws {
			want := exactDistinct(pkts, w.Start, w.End)
			if len(w.Values) != len(want) {
				t.Fatalf("window [%d,%d]: %d keys, want %d", w.Start, w.End, len(w.Values), len(want))
			}
			for k, v := range want {
				if got := w.Values[k]; got != v {
					t.Fatalf("window [%d,%d] key %v: value %d, want OR-count %d", w.Start, w.End, k, got, v)
				}
			}
			summed = summed || w.End > w.Start
		}
		if !summed {
			t.Fatal("no window spans two sub-windows: the summaries decided nothing")
		}
	}

	t.Run("packet", func(t *testing.T) {
		d, err := New(distinctionConfig(false))
		if err != nil {
			t.Fatal(err)
		}
		check(t, d.RunFor(pkts, 1100*ms))
	})

	t.Run("rdma", func(t *testing.T) {
		d, err := New(distinctionConfig(true))
		if err != nil {
			t.Fatal(err)
		}
		check(t, d.RunFor(pkts, 1100*ms))
		if st := d.Stats(); st.AFRs == 0 || st.HotAFRs+st.ColdAFRs != 0 {
			t.Fatalf("summary-carrying records entered the RDMA transport: %+v", st)
		}
	})

	t.Run("durable-crash", func(t *testing.T) {
		for _, at := range []uint64{3, 5} {
			r := crashCase{
				config: func(dir string) Config {
					cfg := distinctionConfig(false)
					cfg.CheckpointDir = dir
					return cfg
				},
				pkts:  pkts,
				dur:   1100 * ms,
				b:     at,
				point: uncommitted,
			}.run(t)
			check(t, r.stitched)
		}
	})
}
