package main

import (
	"fmt"
	"net"
	"testing"
	"time"

	"omniwindow/internal/afr"
	"omniwindow/internal/controller"
	"omniwindow/internal/faults"
	"omniwindow/internal/packet"
	"omniwindow/internal/window"
	"omniwindow/internal/wire"
)

// chaosHarness is the full UDP pipeline under fault injection: a switch
// socket wrapped in a seeded fault schedule, the collector server, and a
// controller behind it. The test itself plays the switch, so NACK
// servicing is synchronous and the run is deterministic up to goroutine
// scheduling — which the delivery barrier makes irrelevant.
type chaosHarness struct {
	t     *testing.T
	sink  *controller.Controller
	col   *collector
	addr  net.Addr
	fconn *lossyConn
	inj   *faults.Injector
}

func newChaosHarness(t *testing.T, cfg faults.Config) *chaosHarness {
	t.Helper()
	serverConn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sink := controller.New(controller.Config{Plan: window.Tumbling(1), Kind: afr.Frequency, Threshold: 1, CaptureValues: true})
	col := serve(serverConn, sink, shedWatermark)

	switchConn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	inj := faults.New(cfg)
	h := &chaosHarness{
		t:     t,
		sink:  sink,
		col:   col,
		addr:  serverConn.LocalAddr(),
		fconn: &lossyConn{PacketConn: switchConn, in: inj, filter: afrFrames},
		inj:   inj,
	}
	t.Cleanup(func() {
		col.Close() // closes serverConn
		switchConn.Close()
	})
	return h
}

func (h *chaosHarness) send(p *packet.Packet) {
	h.t.Helper()
	if err := sendDatagram(h.fconn, h.addr, p); err != nil {
		h.t.Fatal(err)
	}
}

// barrier flushes parked datagrams and waits until the collector has
// accounted for every datagram put on the wire — ingested, rejected by
// the decoder (truncated/corrupted), or shed on queue overrun. After it
// returns, the controller's reliability view is current.
func (h *chaosHarness) barrier() {
	h.t.Helper()
	if err := h.fconn.flush(); err != nil {
		h.t.Fatal(err)
	}
	c := h.col
	deadline := time.Now().Add(5 * time.Second)
	for {
		acct := c.received.Load() + c.recovered.Load() + c.drops.Load() + c.overruns.Load()
		if acct >= h.fconn.delivered.Load() {
			return
		}
		if time.Now().After(deadline) {
			h.t.Fatalf("delivery barrier stuck: %d delivered, %d accounted (recv %d, recov %d, drops %d, overruns %d)",
				h.fconn.delivered.Load(), acct, c.received.Load(), c.recovered.Load(), c.drops.Load(), c.overruns.Load())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// chaosAttr is the ground-truth attribute of sequence s.
func chaosAttr(s int) uint64 { return uint64(s)*3 + 1 }

// runChaosSubWindow plays one sub-window's collection over the faulted
// socket: trigger announcement, enumeration, then the NACK/retransmit
// recovery loop with the given policy. It returns the recovery outcome.
func (h *chaosHarness) runChaosSubWindow(n int, pol controller.RetryPolicy) controller.Recovery {
	h.t.Helper()
	h.send(&packet.Packet{OW: packet.OWHeader{Flag: packet.OWTrigger, SubWindow: 0, KeyCount: uint32(n)}})
	for s := 0; s < n; s++ {
		h.send(afrPkt(packet.AFR{Key: fk(s), SubWindow: 0, Attr: chaosAttr(s), Seq: uint32(s)}))
	}
	h.barrier()

	return controller.RecoverSubWindow(pol,
		func() []uint32 {
			h.barrier()
			return h.sink.MissingSeqs(0)
		},
		func(seqs []uint32) error {
			// The switch answers a NACK by re-querying the requested
			// sequences; the answers cross the same lossy socket.
			for _, s := range seqs {
				h.send(&packet.Packet{OW: packet.OWHeader{
					Flag: packet.OWRetransmit, SubWindow: 0, HasSubWindow: true,
					AFRs: []packet.AFR{{Key: fk(int(s)), SubWindow: 0, Attr: chaosAttr(int(s)), Seq: s}},
				}})
			}
			return h.fconn.flush()
		},
		time.Sleep,
	)
}

// TestChaosUDPRecoveryExact drives the switch→UDP→collector→merge
// pipeline under seeded loss/duplication/reordering/corruption schedules
// and asserts exact repair: after recovery, the merged window equals the
// lossless ground truth per key, is not Incomplete, and every recovered
// sequence is accounted as Recovered rather than Received.
func TestChaosUDPRecoveryExact(t *testing.T) {
	const n = 200
	cases := []struct {
		name string
		cfg  faults.Config
	}{
		{"drop5/seed1", faults.Config{Seed: 1, Drop: 0.05}},
		{"drop5/seed2", faults.Config{Seed: 2, Drop: 0.05}},
		{"drop5/seed3", faults.Config{Seed: 3, Drop: 0.05}},
		{"mixed/seed1", faults.Config{Seed: 1, Drop: 0.10, Duplicate: 0.10, Reorder: 0.15, Truncate: 0.05, Corrupt: 0.05}},
		{"mangle-heavy/seed2", faults.Config{Seed: 2, Truncate: 0.25, Corrupt: 0.25}},
	}
	// Nightly sweep: OMNIWINDOW_EXTRA_SEEDS widens the fixed table with
	// derived seeds on the full mixed schedule.
	for _, s := range faults.ExtraSeeds(2) {
		cases = append(cases, struct {
			name string
			cfg  faults.Config
		}{fmt.Sprintf("mixed/seed%d", s),
			faults.Config{Seed: int64(s), Drop: 0.10, Duplicate: 0.10, Reorder: 0.15, Truncate: 0.05, Corrupt: 0.05}})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := newChaosHarness(t, tc.cfg)
			pol := controller.RetryPolicy{MaxRetries: 25, Backoff: 2 * time.Millisecond, MaxBackoff: 8 * time.Millisecond}
			rec := h.runChaosSubWindow(n, pol)
			if !rec.Complete {
				t.Fatalf("recovery exhausted with %d missing after %d rounds (faults: %+v)",
					len(rec.Missing), rec.Rounds, h.inj.Stats())
			}
			fs := h.inj.Stats()
			if tc.cfg.Drop > 0 && fs.Dropped == 0 {
				t.Fatalf("schedule injected no drops: %+v", fs)
			}
			if (tc.cfg.Truncate > 0 || tc.cfg.Corrupt > 0) && h.col.drops.Load() == 0 {
				t.Fatal("mangled datagrams were not rejected by the decoder")
			}
			if fs.Dropped+fs.Truncated+fs.Corrupted > 0 {
				if rec.Rounds == 0 || h.col.recovered.Load() == 0 {
					t.Fatalf("losses repaired without the recovery path: rounds=%d recovered=%d",
						rec.Rounds, h.col.recovered.Load())
				}
			}

			rel := h.sink.Reliability(0)
			if !rel.Complete() || rel.Expected != n {
				t.Fatalf("reliability snapshot not complete: %+v", rel)
			}
			res := h.sink.FinishSubWindow(0)
			if len(res) != 1 {
				t.Fatalf("windows = %d", len(res))
			}
			w := res[0]
			if w.Incomplete || w.MissingAFRs != 0 {
				t.Fatalf("recovered window marked incomplete: %+v", w)
			}
			if len(w.Values) != n {
				t.Fatalf("window has %d flows, want %d", len(w.Values), n)
			}
			for s := 0; s < n; s++ {
				if got := w.Values[fk(s)]; got != chaosAttr(s) {
					t.Fatalf("flow %d = %d, want %d (dup not suppressed or loss not repaired)",
						s, got, chaosAttr(s))
				}
			}
		})
	}
}

// TestChaosUDPExhaustionMarksIncomplete: when every AFR and every
// retransmission is lost, the bounded retry budget must give up and the
// window must finalize explicitly marked Incomplete with the loss count.
func TestChaosUDPExhaustionMarksIncomplete(t *testing.T) {
	const n = 50
	h := newChaosHarness(t, faults.Config{Seed: 9, Drop: 1})
	pol := controller.RetryPolicy{MaxRetries: 2, Backoff: time.Millisecond, MaxBackoff: time.Millisecond}
	rec := h.runChaosSubWindow(n, pol)
	if rec.Complete || rec.Rounds != 2 || len(rec.Missing) != n {
		t.Fatalf("total loss recovered?! %+v", rec)
	}
	res := h.sink.FinishSubWindow(0)
	if len(res) != 1 {
		t.Fatalf("windows = %d", len(res))
	}
	if !res[0].Incomplete || res[0].MissingAFRs != n {
		t.Fatalf("window not marked incomplete: %+v", res[0])
	}
}

// TestChaosUDPRetriesDisabled: a zero retry budget detects the gaps but
// never NACKs — losses surface immediately as an Incomplete window.
func TestChaosUDPRetriesDisabled(t *testing.T) {
	const n = 50
	h := newChaosHarness(t, faults.Config{Seed: 3, Drop: 0.3})
	rec := h.runChaosSubWindow(n, controller.RetryPolicy{})
	if rec.Complete || rec.Rounds != 0 {
		t.Fatalf("disabled retries recovered: %+v", rec)
	}
	if h.col.recovered.Load() != 0 {
		t.Fatalf("recovered %d datagrams with retries disabled", h.col.recovered.Load())
	}
	res := h.sink.FinishSubWindow(0)
	if len(res) != 1 || !res[0].Incomplete || res[0].MissingAFRs != len(rec.Missing) {
		t.Fatalf("loss not surfaced: %+v (missing %d)", res[0], len(rec.Missing))
	}
}

// TestChaosUDPDedupNeverDoubleCounts floods the pipeline with duplicates
// (including duplicated retransmissions) and asserts per-key counts stay
// exact — sequence dedup is what makes recovery idempotent.
func TestChaosUDPDedupNeverDoubleCounts(t *testing.T) {
	const n = 100
	h := newChaosHarness(t, faults.Config{Seed: 4, Drop: 0.10, Duplicate: 0.6, MaxDuplicates: 3})
	pol := controller.RetryPolicy{MaxRetries: 25, Backoff: 2 * time.Millisecond, MaxBackoff: 8 * time.Millisecond}
	rec := h.runChaosSubWindow(n, pol)
	if !rec.Complete {
		t.Fatalf("recovery exhausted: %+v", rec)
	}
	if h.inj.Stats().Duplicated == 0 {
		t.Fatal("schedule injected no duplicates")
	}
	res := h.sink.FinishSubWindow(0)
	if len(res) != 1 {
		t.Fatalf("windows = %d", len(res))
	}
	for s := 0; s < n; s++ {
		if got := res[0].Values[fk(s)]; got != chaosAttr(s) {
			t.Fatalf("flow %d = %d, want %d: duplicate inflated the count", s, got, chaosAttr(s))
		}
	}
}

// TestChaosUDPSeedsAreReproducible: the same seed yields the same fault
// schedule on the wire, byte for byte, independent of receiver timing.
func TestChaosUDPSeedsAreReproducible(t *testing.T) {
	wireTrace := func() []string {
		inj := faults.New(faults.Config{Seed: 6, Drop: 0.2, Duplicate: 0.2, Reorder: 0.2, Truncate: 0.1, Corrupt: 0.1})
		var out []string
		for s := 0; s < 100; s++ {
			p := afrPkt(packet.AFR{Key: fk(s), SubWindow: 0, Attr: chaosAttr(s), Seq: uint32(s)})
			buf, err := wire.Encode(nil, p)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range inj.Datagrams(buf) {
				out = append(out, fmt.Sprintf("%x", d))
			}
		}
		for _, d := range inj.Flush() {
			out = append(out, fmt.Sprintf("%x", d))
		}
		return out
	}
	a, b := wireTrace(), wireTrace()
	if len(a) != len(b) {
		t.Fatalf("same seed, different wire counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, wire divergence at datagram %d", i)
		}
	}
}
