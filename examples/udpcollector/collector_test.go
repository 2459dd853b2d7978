package main

import (
	"net"
	"testing"
	"time"

	"omniwindow/internal/afr"
	"omniwindow/internal/controller"
	"omniwindow/internal/obs"
	"omniwindow/internal/packet"
	"omniwindow/internal/window"
)

// TestCollectorCloseUnderLoad closes a collector while a switch is still
// sending: Close joins the reader and every ingest worker, so once it
// returns every ingested record has reached the controller and nothing
// more does. That join is the whole shutdown barrier — the controller
// needs no closed gate of its own.
func TestCollectorCloseUnderLoad(t *testing.T) {
	serverConn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctrl := controller.New(controller.Config{Plan: window.Tumbling(1), Kind: afr.Frequency, Shards: 4})
	o := controller.Instrument(obs.NewRegistry())
	ctrl.SetObs(o)
	reached := func() int64 { return o.Ingested.Value() + o.Duplicates.Value() }
	col := serve(serverConn, ctrl, shedWatermark)

	switchConn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer switchConn.Close()
	stop := make(chan struct{})
	sent := make(chan struct{})
	go func() {
		defer close(sent)
		for seq := uint32(0); ; seq++ {
			select {
			case <-stop:
				return
			default:
			}
			// Sends to the closed collector fail or vanish; either is fine.
			_ = sendDatagram(switchConn, serverConn.LocalAddr(), afrPkt(packet.AFR{Key: fk(int(seq)), SubWindow: 0, Attr: 1, Seq: seq}))
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for col.received.Load() < 200 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d datagrams ingested under load", col.received.Load())
		}
		time.Sleep(time.Millisecond)
	}

	if err := col.Close(); err != nil {
		t.Fatal(err)
	}
	after := reached()
	close(stop)
	<-sent
	if got := reached(); got != after {
		t.Fatalf("records reached the controller after Close: %d when Close returned, %d later", after, got)
	}
	if col.received.Load() != after {
		t.Fatalf("collector counted %d ingested datagrams, controller saw %d records", col.received.Load(), after)
	}
}

func TestCollectorOverUDP(t *testing.T) {
	// Controller side: UDP listener feeding the controller.
	serverConn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sink := controller.New(controller.Config{Plan: window.Tumbling(1), Kind: afr.Frequency, Threshold: 3, CaptureValues: true})
	col := serve(serverConn, sink, shedWatermark)
	addr := serverConn.LocalAddr()

	// Switch side: send AFR datagrams plus the trigger.
	switchConn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer switchConn.Close()

	trig := &packet.Packet{OW: packet.OWHeader{Flag: packet.OWTrigger, SubWindow: 0, KeyCount: 20}}
	if err := sendDatagram(switchConn, addr, trig); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		p := afrPkt(packet.AFR{Key: fk(i), SubWindow: 0, Attr: uint64(i), Seq: uint32(i)})
		if err := sendDatagram(switchConn, addr, p); err != nil {
			t.Fatal(err)
		}
	}
	// Garbage datagram: must be dropped, not crash the loop.
	if _, err := switchConn.WriteTo([]byte("not omniwindow"), addr); err != nil {
		t.Fatal(err)
	}

	// Wait until every valid datagram has been ingested and the garbage
	// one dropped; then the reliability check must see every sequence.
	deadline := time.Now().Add(5 * time.Second)
	for col.received.Load() < 21 || col.drops.Load() < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("datagrams not delivered: %d ingested, %d dropped; missing %v",
				col.received.Load(), col.drops.Load(), sink.MissingSeqs(0))
		}
		time.Sleep(5 * time.Millisecond)
	}
	if missing := sink.MissingSeqs(0); missing != nil {
		t.Fatalf("AFRs not all received; missing %v", missing)
	}

	res := sink.FinishSubWindow(0)
	if len(res) != 1 {
		t.Fatalf("windows = %d", len(res))
	}
	if len(res[0].Values) != 20 {
		t.Fatalf("flows = %d", len(res[0].Values))
	}
	for i := 0; i < 20; i++ {
		if res[0].Values[fk(i)] != uint64(i) {
			t.Fatalf("flow %d = %d", i, res[0].Values[fk(i)])
		}
	}
	if err := col.Close(); err != nil {
		t.Fatal(err)
	}
	if col.drops.Load() != 1 {
		t.Fatalf("drops = %d want 1", col.drops.Load())
	}
}

func fk(i int) packet.FlowKey {
	return packet.FlowKey{SrcIP: uint32(i), DstPort: 443, Proto: packet.ProtoTCP}
}

func afrPkt(recs ...packet.AFR) *packet.Packet {
	return &packet.Packet{OW: packet.OWHeader{Flag: packet.OWAFR, AFRs: recs}}
}
