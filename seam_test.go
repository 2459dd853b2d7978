package omniwindow

import (
	"reflect"
	"testing"

	"omniwindow/internal/obs"
	"omniwindow/internal/packet"
	"omniwindow/internal/window"
)

// idleGapTrace: three flows in sub-window 3, then silence until one packet
// in sub-window 10. With no Tick in between, that packet terminates
// sub-windows 3 through 9 at once — and 5, 7 and 9 share sub-window 3's
// still-uncollected region.
func idleGapTrace() []packet.Packet {
	var pkts []packet.Packet
	for f := 1; f <= 3; f++ {
		pkts = append(pkts, packet.Packet{Key: fk(f), Size: 100, Time: 350*ms + int64(f)})
	}
	return append(pkts, packet.Packet{Key: fk(9), Size: 100, Time: 1050 * ms})
}

// TestIdleGapAnnouncesEmptySubWindows: an empty sub-window announces zero
// keys however its termination reaches the controller — a region's key
// count belongs to the one sub-window that owns the region — so a run with
// no fault emits no Incomplete window, and the same trace gives the same
// windows whether Ticks or packets end its sub-windows.
func TestIdleGapAnnouncesEmptySubWindows(t *testing.T) {
	for _, tc := range []struct {
		name     string
		plan     window.Plan
		finalize bool // end with Run's Finalize instead of RunFor's Tick
	}{
		{"tumbling/RunFor", window.Tumbling(2), false},
		{"sliding/RunFor", window.SlidingPlan(3, 1), false},
		{"tumbling/Run", window.Tumbling(2), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(ticks bool) (*Deployment, *obs.Registry) {
				reg := obs.NewRegistry()
				cfg := freqConfig(tc.plan, 1, false)
				cfg.Obs = reg
				d, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				edge := int64(1)
				for _, p := range idleGapTrace() {
					for ; ticks && edge*100*ms <= p.Time; edge++ {
						d.Tick(edge * 100 * ms)
					}
					d.ProcessPacket(&p)
				}
				if tc.finalize {
					d.Finalize()
				} else {
					d.RunFor(nil, 1100*ms)
				}
				return d, reg
			}
			d, reg := run(false)
			if len(d.Results()) == 0 {
				t.Fatal("no window emitted")
			}
			for _, w := range d.Results() {
				if w.Incomplete || w.MissingAFRs != 0 {
					t.Errorf("fault-free run: window [%d,%d] Incomplete=%v MissingAFRs=%d", w.Start, w.End, w.Incomplete, w.MissingAFRs)
				}
			}
			announced := map[uint64]int64{}
			for _, e := range reg.Ring(0).Snapshot() {
				if e.Stage == obs.StageAnnounced {
					announced[e.SubWindow] = e.Value
				}
			}
			if announced[3] != 3 {
				t.Errorf("sub-window 3 announced %d keys, want 3", announced[3])
			}
			for sw := uint64(4); sw <= 9; sw++ {
				if n, ok := announced[sw]; !ok || n != 0 {
					t.Errorf("empty sub-window %d announced %d keys (announced: %v), want 0", sw, n, ok)
				}
			}
			ticked, _ := run(true)
			if !reflect.DeepEqual(ticked.Results(), d.Results()) {
				t.Error("the same trace gives different windows Tick-driven and packet-driven")
			}
		})
	}
}
