package netsim

import (
	"testing"

	"omniwindow/internal/packet"
	"omniwindow/internal/window"
)

func mkPkts(n int, gap int64) []packet.Packet {
	out := make([]packet.Packet, n)
	for i := range out {
		out[i] = packet.Packet{
			Key:  packet.FlowKey{SrcIP: 1, DstIP: 2, Proto: packet.ProtoUDP},
			Seq:  uint32(i),
			Time: int64(i) * gap,
		}
	}
	return out
}

func TestPathDeliversToAllHops(t *testing.T) {
	var seen0, seen1 int
	p := Path{
		Hops: []Hop{
			{Process: func(*packet.Packet, int64) { seen0++ }},
			{Process: func(*packet.Packet, int64) { seen1++ }},
		},
		LinkDelay: []int64{100},
	}
	if d := p.Run(mkPkts(10, 1000)); d != 0 {
		t.Fatalf("dropped = %d", d)
	}
	if seen0 != 10 || seen1 != 10 {
		t.Fatalf("hops saw %d/%d", seen0, seen1)
	}
}

func TestLinkDelayAndOffsetsAffectLocalTime(t *testing.T) {
	var t0, t1 int64
	p := Path{
		Hops: []Hop{
			{Offset: -50, Process: func(_ *packet.Packet, lt int64) { t0 = lt }},
			{Offset: 70, Process: func(_ *packet.Packet, lt int64) { t1 = lt }},
		},
		LinkDelay: []int64{1000},
	}
	p.Run(mkPkts(1, 0))
	if t0 != -50 {
		t.Fatalf("hop0 local time = %d", t0)
	}
	if t1 != 0+1000+70 {
		t.Fatalf("hop1 local time = %d", t1)
	}
}

func TestLossStopsPropagation(t *testing.T) {
	var seen1 int
	p := Path{
		Hops: []Hop{
			{Process: func(*packet.Packet, int64) {}},
			{Process: func(*packet.Packet, int64) { seen1++ }},
		},
		LinkDelay: []int64{0},
		Loss:      func(pk *packet.Packet, hop int) bool { return pk.Seq%2 == 0 },
	}
	d := p.Run(mkPkts(10, 1))
	if d != 5 || seen1 != 5 {
		t.Fatalf("dropped=%d delivered=%d", d, seen1)
	}
}

func TestBernoulliLossDeterministic(t *testing.T) {
	a := BernoulliLoss(0, 0.5, 42)
	b := BernoulliLoss(0, 0.5, 42)
	pk := &packet.Packet{}
	for i := 0; i < 100; i++ {
		if a(pk, 0) != b(pk, 0) {
			t.Fatal("loss not deterministic")
		}
	}
	if a(pk, 1) {
		t.Fatal("loss applied to wrong link")
	}
}

func TestSymmetricOffsets(t *testing.T) {
	a, b := SymmetricOffsets(128000)
	if b-a != 128000 {
		t.Fatalf("deviation = %d", b-a)
	}
}

// TestStampPropagationAcrossHops wires two window managers onto a path and
// verifies the §5 guarantee: with OmniWindow stamping, both switches
// monitor each packet in the same sub-window even under clock deviation
// and link delay; with local clocks they disagree near boundaries.
func TestStampPropagationAcrossHops(t *testing.T) {
	const subWin = int64(100_000) // 100 us sub-windows
	pkts := mkPkts(2000, 997)     // ~2 ms of traffic

	type assignment map[uint32]uint64 // seq -> sub-window

	run := func(stamped bool, deviation int64) (assignment, assignment) {
		m0 := window.NewManager(window.TimeoutSignal{Interval: subWin}, window.NewRegions(2, 4))
		m1 := window.NewManager(window.TimeoutSignal{Interval: subWin}, window.NewRegions(2, 4))
		a0, a1 := assignment{}, assignment{}
		off0, off1 := SymmetricOffsets(deviation)
		p := Path{
			Hops: []Hop{
				{Offset: off0, Process: func(pk *packet.Packet, lt int64) {
					r := m0.OnPacket(pk, lt)
					if !stamped {
						pk.OW.HasSubWindow = false // strip the stamp: local-clock mode
						r.Monitor = uint64(lt / subWin)
					}
					a0[pk.Seq] = r.Monitor
				}},
				{Offset: off1, Process: func(pk *packet.Packet, lt int64) {
					if !stamped {
						a1[pk.Seq] = uint64(lt / subWin)
						return
					}
					r := m1.OnPacket(pk, lt)
					a1[pk.Seq] = r.Monitor
				}},
			},
			LinkDelay: []int64{5000},
		}
		p.Run(pkts)
		return a0, a1
	}

	s0, s1 := run(true, 64000)
	for seq, w0 := range s0 {
		if s1[seq] != w0 {
			t.Fatalf("stamped mode disagreed on seq %d: %d vs %d", seq, w0, s1[seq])
		}
	}

	l0, l1 := run(false, 64000)
	disagree := 0
	for seq, w0 := range l0 {
		if l1[seq] != w0 {
			disagree++
		}
	}
	if disagree == 0 {
		t.Fatal("local clocks with 64 us deviation should disagree on some packets")
	}
}
