package omniwindow

import (
	"testing"

	"omniwindow/internal/packet"
	"omniwindow/internal/window"
)

// steadyPackets are packets of n flows inside sub-window 0.
func steadyPackets(n int) []packet.Packet {
	pkts := make([]packet.Packet, n)
	for i := range pkts {
		pkts[i] = packet.Packet{
			Key:  packet.FlowKey{SrcIP: uint32(i + 1), DstIP: 9, SrcPort: uint16(i), DstPort: 443, Proto: packet.ProtoTCP},
			Size: 100, Time: int64(i + 1),
		}
	}
	return pkts
}

// TestProcessPacketZeroAlloc pins the steady-state packet path — every key
// already tracked, no sub-window terminating, nothing spilling — at zero
// allocations: the pipeline copy is the deployment's scratch packet and the
// switch pass and its emission buffers are reused.
func TestProcessPacketZeroAlloc(t *testing.T) {
	d, err := New(freqConfig(window.Tumbling(5), 10, false))
	if err != nil {
		t.Fatal(err)
	}
	pkts := steadyPackets(64)
	for i := range pkts {
		d.ProcessPacket(&pkts[i])
	}
	i := 0
	if allocs := testing.AllocsPerRun(2000, func() {
		d.ProcessPacket(&pkts[i%len(pkts)])
		i++
	}); allocs != 0 {
		t.Fatalf("steady-state ProcessPacket allocated %v per packet, want 0", allocs)
	}
	if st := d.Stats(); st.Spills != 0 || st.SubWindows != 0 || st.Packets != i+len(pkts) {
		t.Fatalf("not the steady state: %+v", st)
	}
}

// TestProcessPacketLeavesCallerPacketUnstamped: the pipeline works on its
// own copy, scratch or not, so a trace can be replayed through several
// deployments.
func TestProcessPacketLeavesCallerPacketUnstamped(t *testing.T) {
	d, err := New(freqConfig(window.Tumbling(5), 10, false))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range steadyPackets(4) {
		before := p
		d.ProcessPacket(&p)
		if p.OW.HasSubWindow || p.Key != before.Key || p.Time != before.Time {
			t.Fatalf("caller's packet changed: %+v", p)
		}
	}
}

// TestProcessAndForwardPacketsOutliveNextCall: forwarded packets are heap
// copies a downstream hop may keep; only the returned slice is reused.
func TestProcessAndForwardPacketsOutliveNextCall(t *testing.T) {
	d, err := New(freqConfig(window.Tumbling(5), 10, false))
	if err != nil {
		t.Fatal(err)
	}
	pkts := steadyPackets(2)
	first := d.ProcessAndForward(&pkts[0])
	if len(first) != 1 || !first[0].OW.HasSubWindow {
		t.Fatalf("first hop forwarded %v", first)
	}
	kept := first[0]
	second := d.ProcessAndForward(&pkts[1])
	if len(second) != 1 || second[0] == kept {
		t.Fatalf("second call reused the forwarded packet: %v", second)
	}
	if kept.Key != pkts[0].Key || kept.Time != pkts[0].Time || !kept.OW.HasSubWindow {
		t.Fatalf("forwarded packet was overwritten by the next call: %+v", kept)
	}
}
