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

// TestStamperFirstHopWritesEpoch: the stamping switch embeds its epoch
// alongside the sub-window.
func TestStamperFirstHopWritesEpoch(t *testing.T) {
	st := Stamper{Preserve: 1, Epoch: 4}
	p := &packet.Packet{}
	d := st.Apply(2, p, 3)
	if !d.Stamped || p.OW.Epoch != 4 || d.Epoch != 4 {
		t.Fatalf("epoch not stamped: %+v header %+v", d, p.OW)
	}
}

// TestStamperStaleEpochRejected: a stamp from an older epoch (written by a
// rebooted, unsynced switch) must not be monitored, must not move the
// window and must not change the local epoch.
func TestStamperStaleEpochRejected(t *testing.T) {
	st := Stamper{Preserve: 1, Epoch: 2}
	p := &packet.Packet{OW: packet.OWHeader{SubWindow: 99, HasSubWindow: true, Epoch: 1}}
	d := st.Apply(5, p, 0)
	if !d.StaleEpoch {
		t.Fatal("older-epoch stamp accepted")
	}
	if d.Cur != 5 || d.Epoch != 2 {
		t.Fatalf("stale stamp mutated local state: %+v", d)
	}
	if d.Spike || d.Stamped {
		t.Fatalf("stale stamp classified as spike/first-hop: %+v", d)
	}
}

// TestStamperNewerEpochResyncs: a stamp from a newer epoch snaps the
// receiving switch (the rebooted one) back into the fabric — it adopts the
// epoch and the embedded sub-window.
func TestStamperNewerEpochResyncs(t *testing.T) {
	st := Stamper{Preserve: 1, Epoch: 0} // freshly rebooted: epoch wiped
	p := &packet.Packet{OW: packet.OWHeader{SubWindow: 42, HasSubWindow: true, Epoch: 3}}
	d := st.Apply(1, p, 0)
	if !d.Resynced || d.Epoch != 3 || d.Cur != 42 || d.Monitor != 42 {
		t.Fatalf("newer-epoch stamp did not resync: %+v", d)
	}

	// Epoch 0 on both sides degenerates to the epoch-less behaviour.
	st0 := Stamper{Preserve: 1}
	p0 := &packet.Packet{OW: packet.OWHeader{SubWindow: 2, HasSubWindow: true}}
	if d := st0.Apply(2, p0, 0); d.StaleEpoch || d.Resynced {
		t.Fatalf("epoch-less traffic affected by epoch logic: %+v", d)
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

// TestManagerResyncEpochs: Resync adopts newer epochs and jumps forward,
// ignores older-epoch beacons, and never moves the counter backwards.
func TestManagerResyncEpochs(t *testing.T) {
	m := NewManager(TimeoutSignal{Interval: 100}, NewRegions(2, 8))
	m.Resync(2, 7)
	if m.Epoch() != 2 || m.Cur() != 7 {
		t.Fatalf("resync not applied: epoch=%d cur=%d", m.Epoch(), m.Cur())
	}
	m.Resync(1, 99) // stale beacon: ignored entirely
	if m.Epoch() != 2 || m.Cur() != 7 {
		t.Fatalf("older-epoch beacon applied: epoch=%d cur=%d", m.Epoch(), m.Cur())
	}
	m.Resync(2, 3) // same epoch, backwards sub-window: epoch kept, no rewind
	if m.Epoch() != 2 || m.Cur() != 7 {
		t.Fatalf("beacon rewound the counter: epoch=%d cur=%d", m.Epoch(), m.Cur())
	}
}

// TestManagerBootUnsyncedAdoptsWithoutTerminating: a freshly booted
// manager's first advance — signal-, stamp- or tick-driven — must adopt
// the target sub-window without announcing terminations for the skipped
// range (those sub-windows belong to the pre-reboot incarnation; naming
// them would re-announce finished sub-windows and double-emit windows).
func TestManagerBootUnsyncedAdoptsWithoutTerminating(t *testing.T) {
	sig := TimeoutSignal{Interval: 100}
	regions := NewRegions(2, 8)

	// Signal-driven adoption.
	m := NewManager(sig, regions)
	m.BootUnsynced()
	r := m.OnPacket(&packet.Packet{Time: 750}, 750)
	if m.Cur() != 7 || len(r.Terminated) != 0 {
		t.Fatalf("signal adoption: cur=%d terminated=%v", m.Cur(), r.Terminated)
	}
	// The NEXT advance terminates normally again.
	r = m.OnPacket(&packet.Packet{Time: 850}, 850)
	if len(r.Terminated) != 1 || r.Terminated[0] != 7 {
		t.Fatalf("post-adoption advance: terminated=%v", r.Terminated)
	}

	// Stamp-driven adoption (resync from a newer epoch).
	m = NewManager(sig, regions)
	m.BootUnsynced()
	p := &packet.Packet{OW: packet.OWHeader{SubWindow: 9, HasSubWindow: true, Epoch: 1}}
	r = m.OnPacket(p, 950)
	if m.Cur() != 9 || m.Epoch() != 1 || len(r.Terminated) != 0 {
		t.Fatalf("stamp adoption: cur=%d epoch=%d terminated=%v", m.Cur(), m.Epoch(), r.Terminated)
	}

	// Tick-driven adoption.
	m = NewManager(sig, regions)
	m.BootUnsynced()
	if term := m.Tick(640); len(term) != 0 || m.Cur() != 6 {
		t.Fatalf("tick adoption: cur=%d terminated=%v", m.Cur(), term)
	}
	if term := m.Tick(700); len(term) != 1 || term[0] != 6 {
		t.Fatalf("post-adoption tick: terminated=%v", term)
	}
}

// TestManagerStaleEpochNoStateChange: a stale-epoch stamp reaching the
// manager terminates nothing and leaves cur in place.
func TestManagerStaleEpochNoStateChange(t *testing.T) {
	m := NewManager(TimeoutSignal{Interval: 100}, NewRegions(2, 8))
	m.Resync(2, 4)
	p := &packet.Packet{OW: packet.OWHeader{SubWindow: 77, HasSubWindow: true, Epoch: 1}}
	r := m.OnPacket(p, 450)
	if !r.StaleEpoch || m.Cur() != 4 || m.Epoch() != 2 || len(r.Terminated) != 0 {
		t.Fatalf("stale stamp changed manager state: %+v cur=%d epoch=%d", r, m.Cur(), m.Epoch())
	}
}
