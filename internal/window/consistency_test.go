package window

import (
	"testing"

	"omniwindow/internal/packet"
)

// TestStamperPreserveBoundary pins the exact spike cutoff: with the switch
// at newCur, an embedded sub-window emb is monitorable iff
// emb+Preserve >= newCur. The boundary case (equality) must be monitored;
// one sub-window older must spike.
func TestStamperPreserveBoundary(t *testing.T) {
	for preserve := uint64(1); preserve <= 3; preserve++ {
		st := Stamper{Preserve: preserve}
		cur := uint64(10)

		// emb + Preserve == cur: the oldest still-preserved sub-window.
		edge := cur - preserve
		p := &packet.Packet{OW: packet.OWHeader{SubWindow: edge, HasSubWindow: true}}
		d := st.Apply(cur, p, 0)
		if d.Spike || d.Monitor != edge {
			t.Fatalf("preserve=%d: boundary sub-window %d spiked: %+v", preserve, edge, d)
		}

		// emb + Preserve < cur: one older, region already recycled.
		p = &packet.Packet{OW: packet.OWHeader{SubWindow: edge - 1, HasSubWindow: true}}
		d = st.Apply(cur, p, 0)
		if !d.Spike {
			t.Fatalf("preserve=%d: sub-window %d beyond preserve range not spiked", preserve, edge-1)
		}
		if d.Cur != cur {
			t.Fatalf("preserve=%d: spike moved cur to %d", preserve, d.Cur)
		}
	}

	// The boundary is evaluated against the ADVANCED cur: a stamp that
	// itself moves the window forward re-ages older embedded sub-windows.
	st := Stamper{Preserve: 1}
	p := &packet.Packet{OW: packet.OWHeader{SubWindow: 7, HasSubWindow: true}}
	if d := st.Apply(5, p, 0); d.Spike || d.Cur != 7 || d.Monitor != 7 {
		t.Fatalf("window-moving stamp mishandled: %+v", d)
	}
}

// TestManagerFastForwardEdges: zero, backwards and exactly-current targets
// are no-ops; only strictly-forward targets move the counter.
func TestManagerFastForwardEdges(t *testing.T) {
	m := NewManager(TimeoutSignal{Interval: 100}, NewRegions(2, 8))
	m.FastForward(0)
	if m.Cur() != 0 {
		t.Fatalf("FastForward(0) from 0 moved to %d", m.Cur())
	}
	m.FastForward(5)
	if m.Cur() != 5 {
		t.Fatalf("FastForward(5) -> %d", m.Cur())
	}
	m.FastForward(3) // backwards
	if m.Cur() != 5 {
		t.Fatalf("backwards FastForward moved cur to %d", m.Cur())
	}
	m.FastForward(5) // exactly current
	if m.Cur() != 5 {
		t.Fatalf("FastForward to current moved cur to %d", m.Cur())
	}
	// The jump must not have queued terminations: the next in-window
	// packet terminates nothing.
	r := m.OnPacket(&packet.Packet{Time: 550}, 550)
	if len(r.Terminated) != 0 {
		t.Fatalf("FastForward produced terminations: %v", r.Terminated)
	}
}
