package omniwindow

import (
	"testing"
	"time"

	"omniwindow/internal/afr"
	"omniwindow/internal/packet"
	"omniwindow/internal/trace"
	"omniwindow/internal/window"
)

// TestNetworkWideConsistency chains two deployments by hand: the
// upstream switch stamps each packet's sub-window and the downstream one
// adopts the stamp, so their per-window per-flow counts agree exactly
// even though the downstream switch observes packets after a link delay
// that pushes many of them past its local sub-window boundaries. The
// slow-clock case adds a downstream clock that loses 3 ms every
// sub-window: the stamps absorb the drift as they absorb the delay.
func TestNetworkWideConsistency(t *testing.T) {
	for _, tc := range []struct {
		name  string
		drift int64 // downstream clock error per elapsed sub-window
	}{
		{"synced-clocks", 0},
		{"downstream-slow-clock", -3 * ms},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pkts := burstTrace(map[int64][]int{
				50 * ms:  {1, 2},
				150 * ms: {1, 3},
				250 * ms: {2, 3},
				350 * ms: {1},
				450 * ms: {2},
			}, 30)

			upstream, err := New(freqConfig(window.Tumbling(5), 1, false))
			if err != nil {
				t.Fatal(err)
			}
			downstream, err := New(freqConfig(window.Tumbling(5), 1, false))
			if err != nil {
				t.Fatal(err)
			}
			// local is the downstream clock's reading at true time at.
			subWindow := int64(upstream.cfg.SubWindow)
			local := func(at int64) int64 { return at + tc.drift*at/subWindow }

			const linkDelay = 70 * ms // most of a sub-window: local clocks would disagree wildly
			for i := range pkts {
				for _, fwd := range upstream.ProcessAndForward(&pkts[i]) {
					if !fwd.OW.HasSubWindow {
						t.Fatal("upstream did not stamp the packet")
					}
					fwd.Time = local(fwd.Time + linkDelay)
					downstream.ProcessPacket(fwd)
				}
			}
			up := upstream.finishAt(500 * ms)
			down := downstream.finishAt(local(500*ms + linkDelay))

			if len(up) == 0 || len(up) != len(down) {
				t.Fatalf("window counts differ: %d vs %d", len(up), len(down))
			}
			for i := range up {
				if up[i].Start != down[i].Start || up[i].End != down[i].End {
					t.Fatalf("window %d ranges differ", i)
				}
				if len(up[i].Values) != len(down[i].Values) {
					t.Fatalf("window %d: upstream %d flows, downstream %d", i, len(up[i].Values), len(down[i].Values))
				}
				for k, v := range up[i].Values {
					if down[i].Values[k] != v {
						t.Fatalf("window %d key %v: upstream %d downstream %d — consistency broken",
							i, k, v, down[i].Values[k])
					}
				}
			}
		})
	}
}

// finishAt is a test helper: flush at the given virtual time.
func (d *Deployment) finishAt(at int64) []WindowResult {
	d.Tick(at)
	d.now = at + 1<<40
	d.runDueCollections()
	return d.Results()
}

// TestNetworkWideSpikeHandling sends a packet whose stamp is older than
// every preserved sub-window at the downstream switch: it must surface as
// a latency spike, not corrupt a region. Through a two-hop chain, a spike
// copy delivered twice must merge exactly once at each hop.
func TestNetworkWideSpikeHandling(t *testing.T) {
	t.Run("late-stamp", func(t *testing.T) {
		d, err := New(freqConfig(window.Tumbling(5), 1, false))
		if err != nil {
			t.Fatal(err)
		}
		// Advance the switch to sub-window 5 with normal traffic.
		d.ProcessPacket(&packet.Packet{Key: fk(1), Size: 100, Time: 550 * ms})
		// A severely delayed packet stamped sub-window 0 arrives.
		late := &packet.Packet{Key: fk(2), Size: 100, Time: 560 * ms,
			OW: packet.OWHeader{SubWindow: 0, HasSubWindow: true}}
		d.ProcessPacket(late)
		if d.Stats().Spikes != 1 {
			t.Fatalf("spikes = %d want 1", d.Stats().Spikes)
		}
	})
	t.Run("two-hop-duplicate", testTwoHopDuplicateSpike)
}

// testTwoHopDuplicateSpike duplicates one spike copy into a two-hop chain:
// a long grace keeps sub-window 0's collection pending at both hops while
// the spike and its duplicate pass through them.
func testTwoHopDuplicateSpike(t *testing.T) {
	cfg := freqConfig(window.Tumbling(5), 1, false)
	cfg.Grace = 350 * time.Millisecond
	hops := make([]*Deployment, 2)
	for i := range hops {
		var err error
		if hops[i], err = New(cfg); err != nil {
			t.Fatal(err)
		}
	}
	const linkDelay = 30 * ms
	send := func(p *packet.Packet) {
		for _, fwd := range hops[0].ProcessAndForward(p) {
			fwd.Time += linkDelay
			hops[1].ProcessPacket(fwd)
		}
	}
	spike := packet.Packet{Key: fk(9), Seq: 7777, Size: 100, Time: 290 * ms,
		OW: packet.OWHeader{SubWindow: 0, HasSubWindow: true}}
	spiked := false
	for i := 0; i < 80; i++ {
		for _, f := range []int{1, 2} {
			p := packet.Packet{Key: fk(f), Size: 100, Seq: uint32(2*i + f), Time: int64(i)*600*ms/80 + int64(f)}
			if !spiked && p.Time > spike.Time {
				// Both hops are in sub-window 2: stamp 0 is past Preserve.
				dup := spike
				send(&spike)
				send(&dup)
				spiked = true
			}
			send(&p)
		}
	}
	for i, h := range hops {
		if st := h.Stats(); st.Spikes != 2 || st.SpikesMerged != 1 {
			t.Fatalf("hop %d: %d spike copies, %d merged; want 2 and exactly 1", i, st.Spikes, st.SpikesMerged)
		}
	}
	// A third copy pushed straight at a controller is refused too.
	if hops[0].Controller().IngestSpike(packet.AFR{Key: spike.Key, SubWindow: spike.OW.SubWindow, Seq: spike.Seq, Attr: 1}) {
		t.Fatal("controller merged the same spike copy twice")
	}
	for i, h := range hops {
		h.Finalize()
		ws := h.Results()
		if len(ws) == 0 || ws[0].Start != 0 {
			t.Fatalf("hop %d: no window from sub-window 0: %d windows", i, len(ws))
		}
		if got := ws[0].Values[fk(9)]; got != 1 || ws[0].SpikePackets != 1 {
			t.Fatalf("hop %d: spike flow value %d, SpikePackets %d; want 1 and 1", i, got, ws[0].SpikePackets)
		}
	}
}

// TestSessionSignalDeployment runs session windows end to end: windows
// terminate after idle gaps, not on a fixed period.
func TestSessionSignalDeployment(t *testing.T) {
	cfg := freqConfig(window.Tumbling(1), 1, false)
	cfg.Signal = &window.SessionSignal{IdleGap: 50 * ms}
	cfg.SubWindow = 0 // session windows have no fixed length
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Two activity sessions separated by 200 ms of silence.
	pkts := append(burstTrace(map[int64][]int{50 * ms: {1}}, 20),
		burstTrace(map[int64][]int{350 * ms: {2}}, 20)...)
	results := d.Run(pkts)
	if len(results) != 2 {
		t.Fatalf("sessions = %d want 2", len(results))
	}
	if results[0].Values[fk(1)] != 20 || results[1].Values[fk(2)] != 20 {
		t.Fatalf("session contents wrong: %v / %v", results[0].Values, results[1].Values)
	}
}

// TestCounterSignalDeployment runs count-based windows: every 500 packets
// terminate a sub-window regardless of time.
func TestCounterSignalDeployment(t *testing.T) {
	cfg := freqConfig(window.Tumbling(1), 1, false)
	cfg.Signal = &window.CounterSignal{Threshold: 500}
	cfg.SubWindow = 0
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pkts := burstTrace(map[int64][]int{50 * ms: {1, 2, 3, 4, 5}}, 300) // 1500 packets
	results := d.Run(pkts)
	// The packet that reaches the threshold opens the next window, so
	// 1500 packets split 499 / 500 / 500 / 1.
	if len(results) != 4 {
		t.Fatalf("count windows = %d want 4", len(results))
	}
	var total uint64
	sizes := make([]uint64, 0, len(results))
	for _, w := range results {
		var s uint64
		for _, v := range w.Values {
			s += v
		}
		sizes = append(sizes, s)
		total += s
	}
	if total != 1500 {
		t.Fatalf("total measured = %d want 1500", total)
	}
	if sizes[1] != 500 || sizes[2] != 500 {
		t.Fatalf("interior count windows = %v want 500 each", sizes)
	}
}

// TestExistenceKind verifies the existence merge pattern end to end.
func TestExistenceKind(t *testing.T) {
	cfg := freqConfig(window.Tumbling(5), 1, false)
	cfg.Kind = afr.Existence
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pkts := burstTrace(map[int64][]int{50 * ms: {1}, 350 * ms: {2}}, 40)
	results := d.RunFor(pkts, 500*ms)
	if len(results) != 1 {
		t.Fatalf("windows = %d", len(results))
	}
	if results[0].Values[fk(1)] != 1 || results[0].Values[fk(2)] != 1 {
		t.Fatalf("existence values wrong: %v", results[0].Values)
	}
}

var _ = trace.Millisecond // keep the trace import if helpers change

// TestFeasibilityReport is the §6 deployment check: with two shared
// memory regions every sub-window's collect-and-reset must finish strictly
// inside one sub-window. A light run fits with room to spare; a worst C&R
// time equal to the sub-window does not.
func TestFeasibilityReport(t *testing.T) {
	d, err := New(freqConfig(window.Tumbling(5), 1, false))
	if err != nil {
		t.Fatal(err)
	}
	pkts := burstTrace(map[int64][]int{50 * ms: {1, 2, 3}}, 50)
	d.RunFor(pkts, 500*ms)
	if err := d.assertConsistent(); err != nil {
		t.Fatalf("two regions should suffice: %v", err)
	}
	if worst := d.Stats().MaxCollectVirtual; worst <= 0 || 2*worst > d.cfg.SubWindow {
		t.Fatalf("implausible worst C&R time %v for sub-window %v", worst, d.cfg.SubWindow)
	}
	d.stats.MaxCollectVirtual = d.cfg.SubWindow - 1
	if err := d.assertConsistent(); err != nil {
		t.Fatalf("C&R one tick inside the sub-window rejected: %v", err)
	}
	d.stats.MaxCollectVirtual = d.cfg.SubWindow
	if d.assertConsistent() == nil {
		t.Fatal("C&R time equal to the sub-window accepted: §6 needs it strictly inside")
	}
}
