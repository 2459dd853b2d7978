package main

import (
	"net"
	"testing"
	"time"

	"omniwindow/internal/afr"
	"omniwindow/internal/controller"
	"omniwindow/internal/packet"
	"omniwindow/internal/window"
)

// shedHarness is a collector over real loopback UDP with watermark 0:
// EVERY first-transmission data frame is shed (recoverable-first
// admission), with no dependency on worker-drain timing — the
// admission-control paths become fully deterministic.
type shedHarness struct {
	t    *testing.T
	sink *controller.Controller
	col  *collector
	sw   net.PacketConn
}

func newShedHarness(t *testing.T) *shedHarness {
	t.Helper()
	serverConn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sink := controller.New(controller.Config{Plan: window.Tumbling(1), Kind: afr.Frequency, Threshold: 1, CaptureValues: true})
	col := serve(serverConn, sink, 0)
	switchConn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	h := &shedHarness{t: t, sink: sink, col: col, sw: switchConn}
	t.Cleanup(func() {
		col.Close()
		switchConn.Close()
	})
	return h
}

func (h *shedHarness) send(p *packet.Packet) {
	h.t.Helper()
	if err := sendDatagram(h.sw, h.col.conn.LocalAddr(), p); err != nil {
		h.t.Fatal(err)
	}
}

// wait polls until cond holds (the UDP path is asynchronous even though the
// shed decisions are not).
func (h *shedHarness) wait(what string, cond func() bool) {
	h.t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			h.t.Fatalf("timed out waiting for %s (received %d, recovered %d, overruns %d, shedAFRs %d)",
				what, h.col.received.Load(), h.col.recovered.Load(), h.col.overruns.Load(), h.col.shedAFRs.Load())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestShedRecoverableFirstRecoversEverything: first transmissions shed at
// the watermark are charged to their sub-window, the gap detector NACKs
// them, and retransmissions — which the policy admits past the watermark —
// bring every record back: the window finalizes exact, Shed accounted but
// not Degraded.
func TestShedRecoverableFirstRecoversEverything(t *testing.T) {
	h := newShedHarness(t)

	// Control frame: never shed, even at watermark 0.
	h.send(&packet.Packet{OW: packet.OWHeader{Flag: packet.OWTrigger, SubWindow: 0, KeyCount: 3}})
	h.wait("trigger delivery", func() bool { return h.col.received.Load() == 1 })

	for i := 0; i < 3; i++ {
		h.send(afrPkt(rec(i, 0, 10+i, i)))
	}
	h.wait("watermark shedding", func() bool { return h.col.overruns.Load() == 3 && h.col.shedAFRs.Load() == 3 })
	if got := h.sink.MissingSeqs(0); len(got) != 3 {
		t.Fatalf("shed records not NACKable: missing %v", got)
	}
	if rel := h.sink.Reliability(0); rel.Shed != 3 {
		t.Fatalf("shed not attributed: %+v", rel)
	}

	// The NACK answer: retransmissions pass the watermark under this policy.
	for i := 0; i < 3; i++ {
		p := afrPkt(rec(i, 0, 10+i, i))
		p.OW.Flag = packet.OWRetransmit
		h.send(p)
	}
	h.wait("retransmit ingest", func() bool { return h.col.recovered.Load() == 3 })
	if got := h.sink.MissingSeqs(0); got != nil {
		t.Fatalf("still missing after retransmit: %v", got)
	}

	res := h.sink.FinishSubWindow(0)
	if len(res) != 1 {
		t.Fatalf("windows = %d", len(res))
	}
	w := res[0]
	if w.ShedAFRs != 3 {
		t.Fatalf("window ShedAFRs = %d want 3", w.ShedAFRs)
	}
	if w.Degraded || w.Incomplete {
		t.Fatalf("fully recovered window marked Degraded=%v Incomplete=%v", w.Degraded, w.Incomplete)
	}
	for i := 0; i < 3; i++ {
		if w.Values[fk(i)] != uint64(10+i) {
			t.Fatalf("flow %d = %d want %d", i, w.Values[fk(i)], 10+i)
		}
	}
}

// TestShedUnrecoveredMarksDegraded: shed records that the retransmit path
// never brings back leave the window both Incomplete (data is missing) and
// Degraded (the cause was overload, not wire loss).
func TestShedUnrecoveredMarksDegraded(t *testing.T) {
	h := newShedHarness(t)

	h.send(&packet.Packet{OW: packet.OWHeader{Flag: packet.OWTrigger, SubWindow: 0, KeyCount: 2}})
	h.wait("trigger delivery", func() bool { return h.col.received.Load() == 1 })
	for i := 0; i < 2; i++ {
		h.send(afrPkt(rec(i, 0, 5, i)))
	}
	h.wait("watermark shedding", func() bool { return h.col.shedAFRs.Load() == 2 })

	res := h.sink.FinishSubWindow(0)
	if len(res) != 1 {
		t.Fatalf("windows = %d", len(res))
	}
	w := res[0]
	if !w.Degraded {
		t.Fatalf("overload-damaged window not Degraded: %+v", w)
	}
	if !w.Incomplete || w.MissingAFRs != 2 || w.ShedAFRs != 2 {
		t.Fatalf("damage accounting wrong: Incomplete=%v MissingAFRs=%d ShedAFRs=%d",
			w.Incomplete, w.MissingAFRs, w.ShedAFRs)
	}
}

func rec(key, sw, attr, seq int) packet.AFR {
	return packet.AFR{Key: fk(key), SubWindow: uint64(sw), Attr: uint64(attr), Seq: uint32(seq)}
}
