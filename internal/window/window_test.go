package window

import (
	"testing"
	"testing/quick"

	"omniwindow/internal/packet"
)

func TestTimeoutSignalTargets(t *testing.T) {
	s := TimeoutSignal{Interval: 100}
	if got := s.Target(0, nil, 50); got != 0 {
		t.Fatalf("t=50 -> %d", got)
	}
	if got := s.Target(0, nil, 100); got != 1 {
		t.Fatalf("t=100 -> %d", got)
	}
	if got := s.Target(0, nil, 555); got != 5 {
		t.Fatalf("t=555 -> %d", got)
	}
	// Never moves backwards even if time looks stale.
	if got := s.Target(7, nil, 100); got != 7 {
		t.Fatalf("stale time moved window back: %d", got)
	}
	// Degenerate interval is inert.
	if got := (TimeoutSignal{}).Target(3, nil, 1e9); got != 3 {
		t.Fatalf("zero interval advanced: %d", got)
	}
}

func TestCounterSignal(t *testing.T) {
	tcp := &packet.Packet{Key: packet.FlowKey{Proto: packet.ProtoTCP}}
	udp := &packet.Packet{Key: packet.FlowKey{Proto: packet.ProtoUDP}}
	s := &CounterSignal{
		Cond:      func(p *packet.Packet) bool { return p.Key.Proto == packet.ProtoTCP },
		Threshold: 3,
	}
	cur := uint64(0)
	for i := 0; i < 2; i++ {
		if got := s.Target(cur, tcp, 0); got != 0 {
			t.Fatalf("early trigger at %d", i)
		}
	}
	if got := s.Target(cur, udp, 0); got != 0 {
		t.Fatal("non-matching packet advanced counter window")
	}
	if got := s.Target(cur, tcp, 0); got != 1 {
		t.Fatal("threshold did not terminate sub-window")
	}
	// Counter resets after firing.
	if got := s.Target(1, tcp, 0); got != 1 {
		t.Fatal("counter did not reset")
	}
}

func TestCounterSignalNilCondCountsAll(t *testing.T) {
	s := &CounterSignal{Threshold: 2}
	p := &packet.Packet{}
	s.Target(0, p, 0)
	if got := s.Target(0, p, 0); got != 1 {
		t.Fatal("nil cond should count every packet")
	}
}

func TestSessionSignal(t *testing.T) {
	s := &SessionSignal{IdleGap: 100}
	p := &packet.Packet{}
	if got := s.Target(0, p, 0); got != 0 {
		t.Fatal("first packet started a session boundary")
	}
	if got := s.Target(0, p, 50); got != 0 {
		t.Fatal("active session terminated")
	}
	if got := s.Target(0, p, 200); got != 1 {
		t.Fatal("idle gap did not terminate session")
	}
	if got := s.Target(1, p, 250); got != 1 {
		t.Fatal("resumed session terminated again")
	}
}

func TestUserSignal(t *testing.T) {
	s := UserSignal{}
	plain := &packet.Packet{}
	if got := s.Target(2, plain, 0); got != 2 {
		t.Fatal("packet without signal advanced window")
	}
	iter5 := &packet.Packet{OW: packet.OWHeader{UserSignal: 5, HasUserSignal: true}}
	if got := s.Target(2, iter5, 0); got != 5 {
		t.Fatal("user signal not adopted")
	}
	iter1 := &packet.Packet{OW: packet.OWHeader{UserSignal: 1, HasUserSignal: true}}
	if got := s.Target(5, iter1, 0); got != 5 {
		t.Fatal("stale user signal moved window back")
	}
}

func TestStamperFirstHopStamps(t *testing.T) {
	st := Stamper{Preserve: 1}
	p := &packet.Packet{}
	d := st.Apply(3, p, 4)
	if !d.Stamped || d.Monitor != 4 || d.Cur != 4 || d.Spike {
		t.Fatalf("unexpected decision: %+v", d)
	}
	if !p.OW.HasSubWindow || p.OW.SubWindow != 4 {
		t.Fatal("stamp not written to packet")
	}
}

func TestStamperDownstreamAdoptsEmbedded(t *testing.T) {
	st := Stamper{Preserve: 1}
	// Figure 4, packet B: switch already in sub-window 2, packet stamped 1.
	p := &packet.Packet{OW: packet.OWHeader{SubWindow: 1, HasSubWindow: true}}
	d := st.Apply(2, p, 99)
	if d.Stamped {
		t.Fatal("downstream must not restamp")
	}
	if d.Monitor != 1 || d.Cur != 2 || d.Spike {
		t.Fatalf("unexpected decision: %+v", d)
	}
}

func TestStamperPacketMovesWindowForward(t *testing.T) {
	st := Stamper{Preserve: 1}
	// Figure 4, packet D: embedded sub-window 3 while switch is in 2.
	p := &packet.Packet{OW: packet.OWHeader{SubWindow: 3, HasSubWindow: true}}
	d := st.Apply(2, p, 0)
	if d.Cur != 3 || d.Monitor != 3 || d.Spike {
		t.Fatalf("window-moving signal not applied: %+v", d)
	}
}

func TestStamperLatencySpike(t *testing.T) {
	st := Stamper{Preserve: 1}
	p := &packet.Packet{OW: packet.OWHeader{SubWindow: 1, HasSubWindow: true}}
	d := st.Apply(5, p, 0)
	if !d.Spike {
		t.Fatal("ancient stamp should be a latency spike")
	}
	if d.Cur != 5 {
		t.Fatalf("cur corrupted: %d", d.Cur)
	}
	// Preserve=2 keeps two old sub-windows monitorable.
	st2 := Stamper{Preserve: 2}
	p2 := &packet.Packet{OW: packet.OWHeader{SubWindow: 3, HasSubWindow: true}}
	if d := st2.Apply(5, p2, 0); d.Spike {
		t.Fatal("sub-window within preserve range spiked")
	}
}

func TestStamperNeverMovesBackProperty(t *testing.T) {
	f := func(cur, emb uint64, preserve uint8) bool {
		st := Stamper{Preserve: uint64(preserve%4) + 1}
		p := &packet.Packet{OW: packet.OWHeader{SubWindow: emb, HasSubWindow: true}}
		d := st.Apply(cur, p, 0)
		return d.Cur >= cur && (d.Spike || d.Monitor == emb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRegionsMapping(t *testing.T) {
	r := NewRegions(2, 1000)
	if r.Index(0) != 0 || r.Index(1) != 1 || r.Index(2) != 0 {
		t.Fatal("region alternation broken")
	}
	if r.Offset(3) != 1000 || r.Offset(4) != 0 {
		t.Fatal("flat offsets wrong")
	}
	if r.FlatEntries() != 2000 {
		t.Fatal("flat size wrong")
	}
	addr, err := r.Addr(3, 999)
	if err != nil || addr != 1999 {
		t.Fatalf("Addr = %d, %v", addr, err)
	}
	if _, err := r.Addr(3, 1000); err == nil {
		t.Fatal("out-of-region slot accepted")
	}
	if _, err := r.Addr(3, -1); err == nil {
		t.Fatal("negative slot accepted")
	}
}

func TestRegionsValidation(t *testing.T) {
	for _, fn := range []func(){
		func() { NewRegions(1, 10) },
		func() { NewRegions(2, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestPlanTumbling(t *testing.T) {
	p := Tumbling(5)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	wantEnds := map[uint64]uint64{4: 0, 9: 5, 14: 10}
	for sw := uint64(0); sw < 15; sw++ {
		start, ok := p.Ends(sw)
		wantStart, want := wantEnds[sw]
		if ok != want || (ok && start != wantStart) {
			t.Fatalf("Ends(%d) = %d,%v", sw, start, ok)
		}
	}
}

func TestPlanSliding(t *testing.T) {
	p := SlidingPlan(5, 1) // 500 ms window, 100 ms slide: the paper's setup
	for sw := uint64(4); sw < 20; sw++ {
		start, ok := p.Ends(sw)
		if !ok {
			t.Fatalf("sliding window must end at every sub-window >= 4 (sw=%d)", sw)
		}
		if start != sw-4 {
			t.Fatalf("Ends(%d) start = %d", sw, start)
		}
	}
	if _, ok := p.Ends(3); ok {
		t.Fatal("window ended before filling")
	}
}

func TestPlanRetire(t *testing.T) {
	tw := Tumbling(5)
	if r, ok := tw.Retire(4); !ok || r != 4 {
		t.Fatalf("tumbling retire(4) = %d,%v", r, ok)
	}
	sl := SlidingPlan(5, 1)
	if r, ok := sl.Retire(4); !ok || r != 0 {
		t.Fatalf("sliding retire(4) = %d,%v", r, ok)
	}
	if _, ok := sl.Retire(3); ok {
		t.Fatal("retire before first window end")
	}
}

// TestPlanCovers: a sub-window is covered exactly when some window
// [k*Slide, k*Slide+Size) contains it — always, unless the plan subsamples.
func TestPlanCovers(t *testing.T) {
	for _, tc := range []struct {
		plan      Plan
		uncovered []uint64 // among sub-windows 0..11
	}{
		{Tumbling(1), nil},
		{Tumbling(5), nil},
		{SlidingPlan(5, 1), nil},
		{SlidingPlan(5, 2), nil}, // Slide does not divide Size
		{SlidingPlan(4, 3), nil},
		{Plan{Size: 2, Slide: 4}, []uint64{2, 3, 6, 7, 10, 11}},
		{Plan{Size: 2, Slide: 3}, []uint64{2, 5, 8, 11}}, // nor here
		{Plan{Size: 1, Slide: 5}, []uint64{1, 2, 3, 4, 6, 7, 8, 9, 11}},
	} {
		want := map[uint64]bool{}
		for _, sw := range tc.uncovered {
			want[sw] = true
		}
		for sw := uint64(0); sw < 12; sw++ {
			// The definition, by enumeration of windows.
			covered := false
			for start := uint64(0); start <= sw; start += uint64(tc.plan.Slide) {
				if sw < start+uint64(tc.plan.Size) {
					covered = true
				}
			}
			if covered == want[sw] {
				t.Fatalf("%+v: test table disagrees with the definition at sub-window %d", tc.plan, sw)
			}
			if got := tc.plan.Covers(sw); got != covered {
				t.Fatalf("%+v.Covers(%d) = %v, want %v", tc.plan, sw, got, covered)
			}
			// A sub-window that ends a window is covered by it.
			if _, ends := tc.plan.Ends(sw); ends && !tc.plan.Covers(sw) {
				t.Fatalf("%+v: sub-window %d ends a window but is not covered", tc.plan, sw)
			}
		}
	}
}

func TestPlanValidate(t *testing.T) {
	if (Plan{Size: 0, Slide: 1}).Validate() == nil {
		t.Fatal("zero size accepted")
	}
	if (Plan{Size: 1, Slide: 0}).Validate() == nil {
		t.Fatal("zero slide accepted")
	}
}

func TestManagerFlow(t *testing.T) {
	m := NewManager(TimeoutSignal{Interval: 100}, NewRegions(2, 64))
	p1 := &packet.Packet{Time: 10}
	r := m.OnPacket(p1, 10)
	if r.Monitor != 0 || r.Region != 0 || r.Offset != 0 || len(r.Terminated) != 0 {
		t.Fatalf("first packet: %+v", r)
	}
	// Crossing one boundary terminates sub-window 0 and lands in region 1.
	p2 := &packet.Packet{Time: 120}
	r = m.OnPacket(p2, 120)
	if r.Monitor != 1 || r.Region != 1 || r.Offset != 64 {
		t.Fatalf("second packet: %+v", r)
	}
	if len(r.Terminated) != 1 || r.Terminated[0] != 0 {
		t.Fatalf("termination missing: %+v", r.Terminated)
	}
	if m.Cur() != 1 {
		t.Fatalf("cur = %d", m.Cur())
	}
}

func TestManagerIdleGapTerminatesSeveral(t *testing.T) {
	m := NewManager(TimeoutSignal{Interval: 100}, NewRegions(2, 64))
	m.OnPacket(&packet.Packet{}, 10)
	r := m.OnPacket(&packet.Packet{}, 450)
	if len(r.Terminated) != 4 {
		t.Fatalf("terminated = %v", r.Terminated)
	}
}

func TestManagerDownstreamDoesNotConsultSignal(t *testing.T) {
	// A downstream switch with a *different* local clock must still
	// monitor the packet in its embedded sub-window.
	m := NewManager(TimeoutSignal{Interval: 100}, NewRegions(2, 64))
	p := &packet.Packet{OW: packet.OWHeader{SubWindow: 2, HasSubWindow: true}}
	r := m.OnPacket(p, 999999) // local clock says sub-window 9999
	if r.Monitor != 2 {
		t.Fatalf("embedded stamp ignored: %+v", r)
	}
	if m.Cur() != 2 {
		t.Fatalf("cur = %d", m.Cur())
	}
}

func TestManagerSpikeHasNoRegion(t *testing.T) {
	m := NewManager(TimeoutSignal{Interval: 100}, NewRegions(2, 64))
	m.OnPacket(&packet.Packet{}, 950) // cur -> 9
	p := &packet.Packet{OW: packet.OWHeader{SubWindow: 1, HasSubWindow: true}}
	r := m.OnPacket(p, 960)
	if !r.Spike {
		t.Fatal("expected spike")
	}
}

func TestManagerTick(t *testing.T) {
	m := NewManager(TimeoutSignal{Interval: 100}, NewRegions(2, 64))
	m.OnPacket(&packet.Packet{}, 10)
	ended := m.Tick(250)
	if len(ended) != 2 || ended[0] != 0 || ended[1] != 1 {
		t.Fatalf("tick terminated %v", ended)
	}
	if m.Cur() != 2 {
		t.Fatalf("cur = %d", m.Cur())
	}
	if got := m.Tick(260); got != nil {
		t.Fatalf("idle tick terminated %v", got)
	}
}

// TestPlanCoverageProperty: for random plans, each sub-window beyond the
// warm-up appears in exactly ceil(size/slide) emitted windows, and every
// window has exactly `size` sub-windows.
func TestPlanCoverageProperty(t *testing.T) {
	f := func(sizeRaw, slideRaw uint8) bool {
		size := int(sizeRaw%8) + 1
		slide := int(slideRaw%uint8(size)) + 1
		p := SlidingPlan(size, slide)
		const horizon = 200
		cover := make([]int, horizon)
		for sw := uint64(0); sw < horizon; sw++ {
			start, ok := p.Ends(sw)
			if !ok {
				continue
			}
			if sw-start+1 != uint64(size) {
				return false
			}
			for s := start; s <= sw; s++ {
				cover[s]++
			}
		}
		// Steady state: every sub-window is covered either floor or
		// ceil of size/slide times (exactly size/slide when slide
		// divides size). Skip the warm-up prefix and the tail whose
		// windows have not all ended inside the horizon.
		lo, hi := size/slide, (size+slide-1)/slide
		if lo == 0 {
			lo = 1
		}
		for s := size; s < horizon-size; s++ {
			if cover[s] < lo || cover[s] > hi {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestRetireNeverCutsLiveSubWindows: whatever the plan, a retired
// sub-window is never needed by any later window.
func TestRetireNeverCutsLiveSubWindows(t *testing.T) {
	f := func(sizeRaw, slideRaw uint8) bool {
		size := int(sizeRaw%8) + 1
		slide := int(slideRaw%uint8(size)) + 1
		p := SlidingPlan(size, slide)
		for sw := uint64(0); sw < 100; sw++ {
			retire, ok := p.Retire(sw)
			if !ok {
				continue
			}
			// Every window ending strictly after sw must start after
			// the retired point.
			for later := sw + 1; later < sw+40; later++ {
				start, ends := p.Ends(later)
				if ends && start <= retire {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
