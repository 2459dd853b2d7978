package controller

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"omniwindow/internal/afr"
	"omniwindow/internal/metrics"
	"omniwindow/internal/obs"
	"omniwindow/internal/packet"
	"omniwindow/internal/window"
	"omniwindow/internal/wire"
)

func triggerPkt(sw uint64, keys uint32) *packet.Packet {
	return &packet.Packet{OW: packet.OWHeader{Flag: packet.OWTrigger, SubWindow: sw, KeyCount: keys}}
}

// TestLateArrivalDoesNotReopenFinishedSubWindow: a duplicate datagram or a
// retransmitted trigger that arrives after its sub-window finished is
// dropped at ingest. It used to resurrect arrival state beside the
// retained accounting: Reliability flipped to {Expected:-1 Received:1}, a
// late trigger then advertised sequence 1 as missing — a gap in a complete
// sub-window that a UDP driver would NACK — and ExportState wrote the
// ghost (a pending record and a dedup entry) into the checkpoint.
func TestLateArrivalDoesNotReopenFinishedSubWindow(t *testing.T) {
	c := New(Config{Plan: window.SlidingPlan(3, 1), Kind: afr.Frequency, Shards: 2})
	c.SetObs(Instrument(obs.NewRegistry()))
	c.Receive(triggerPkt(0, 2))
	c.Receive(afrPkt(rec(1, 0, 5, 0), rec(2, 0, 5, 1)))
	c.FinishSubWindow(0)

	wantRel := metrics.Reliability{Expected: 2, Received: 2}
	wantSize := c.TableSize()
	wantSnap := snapBytes(c.ExportState())
	check := func(after string) {
		t.Helper()
		if got := c.Reliability(0); got != wantRel {
			t.Fatalf("after %s: Reliability(0) = %+v, want %+v", after, got, wantRel)
		}
		if got := c.MissingSeqs(0); got != nil {
			t.Fatalf("after %s: finished sub-window advertises gaps %v", after, got)
		}
		if got := c.TableSize(); got != wantSize {
			t.Fatalf("after %s: TableSize %d, want %d", after, got, wantSize)
		}
		if got := snapBytes(c.ExportState()); !bytes.Equal(got, wantSnap) {
			snap, _ := wire.DecodeSnapshot(got)
			t.Fatalf("after %s: snapshot changed: %d pending, %d dedups, %d rels",
				after, len(snap.Pending), len(snap.Dedups), len(snap.Rels))
		}
	}
	check("the finish")

	c.Receive(afrPkt(rec(1, 0, 5, 0)))
	check("a late duplicate datagram")
	c.IngestAFRs([]packet.AFR{rec(3, 0, 5, 7)})
	check("a late record with a fresh sequence number")
	c.Receive(triggerPkt(0, 2))
	check("a late trigger")
	if got := c.obs.Duplicates.Value(); got != 3 {
		t.Fatalf("late arrivals counted as %d duplicates, want 3", got)
	}

	// Shed noted after the finish amends the retained accounting.
	c.NoteShed(0, 5)
	wantRel.Shed = 5
	if got := c.Reliability(0); got != wantRel {
		t.Fatalf("NoteShed after finish: Reliability(0) = %+v, want %+v", got, wantRel)
	}
}

// TestLedgerIsBounded drives every way a ledger record comes to exist —
// records, triggers, spikes, NoteLost and NoteShed before the first
// record, between finish and retire and after retire, and sub-windows
// nothing announced finishing in a row — over a long run and checks, after
// every retire, that the ledger holds nothing at or below the retired
// sub-window and no more than the plan keeps live plus what the test has
// opened ahead. Controller.times is not part of the
// ledger and is not bounded here: it still grows by one entry per
// sub-window (ROADMAP items 8/10).
func TestLedgerIsBounded(t *testing.T) {
	plan := window.SlidingPlan(3, 1)
	c := New(Config{Plan: plan, Kind: afr.Frequency, Shards: 2})
	const ahead = 2 // the furthest the loop touches beyond the finishing sub-window
	sw := uint64(0)
	finish := func(upTo uint64) {
		t.Helper()
		c.FinishSubWindow(upTo)
		sw = upTo + 1
		retire, ok := plan.Retire(upTo)
		if _, ends := plan.Ends(upTo); !ends || !ok {
			return // the first window has not closed yet
		}
		c.mu.Lock()
		defer c.mu.Unlock()
		for old := range c.ledger {
			if old <= retire {
				t.Fatalf("after finishing %d: record %d outlived the retire of %d", upTo, old, retire)
			}
		}
		if n := len(c.ledger); n > plan.Size+ahead {
			t.Fatalf("after finishing %d: ledger holds %d records, want <= %d", upTo, n, plan.Size+ahead)
		}
	}
	for round := 0; round < 200; round++ {
		// Before the first record: a pre-charge and a shed note on
		// sub-windows nothing has announced yet.
		c.NoteLost(sw+ahead, 1)
		c.NoteShed(sw+1, 3)
		c.Receive(triggerPkt(sw, 2))
		c.Receive(afrPkt(rec(round, int(sw), 1, 0), rec(round+1, int(sw), 1, 1)))
		c.IngestSpike(packet.AFR{Key: fk(round), Seq: 9, SubWindow: sw + 1, Attr: 1})
		if round%7 == 6 {
			for end := sw + 3; sw <= end; {
				finish(sw) // three of them announced nothing
			}
		} else {
			finish(sw)
		}
		// Between finish and retire, and after retire.
		c.NoteShed(sw-1, 2)
		c.NoteLost(sw-1, 1)
		if sw > 10 {
			c.NoteShed(sw-10, 2)
			c.NoteLost(sw-10, 1)
			c.Receive(afrPkt(rec(round, int(sw-10), 1, 0)))
		}
	}
}

// TestSeqSetMissingMatchesBitLoop holds the word scans behind MissingSeqs
// and Reliability to the loop they replaced, one has() per sequence over
// [0, expected): random sets of every density, expected values off a word
// boundary, word arrays shorter than expected (sequences never seen near
// the end), and sequences in the overflow map, past the dense bound.
func TestSeqSetMissingMatchesBitLoop(t *testing.T) {
	bitLoop := func(s *seqSet, expected int) []uint32 {
		var out []uint32
		for seq := 0; seq < expected; seq++ {
			if !s.has(uint32(seq)) {
				out = append(out, uint32(seq))
			}
		}
		return out
	}
	check := func(name string, s *seqSet, expected int) {
		t.Helper()
		want := bitLoop(s, expected)
		if got := s.appendMissing(nil, expected); !slices.Equal(got, want) {
			t.Fatalf("%s: appendMissing(%d) = %d sequences, bit loop %d (first %v vs %v)",
				name, expected, len(got), len(want), got[:min(len(got), 8)], want[:min(len(want), 8)])
		}
		if got := s.countMissing(expected); got != len(want) {
			t.Fatalf("%s: countMissing(%d) = %d, bit loop %d", name, expected, got, len(want))
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		var s seqSet
		span := 1 + rng.Intn(700)
		density := rng.Float64()
		for seq := 0; seq < span; seq++ {
			if rng.Float64() < density {
				s.add(uint32(seq))
			}
		}
		// expected below, at and past the words the set holds, on and
		// off a multiple of 64.
		for _, expected := range []int{-1, 0, 1, 63, 64, 65, span - 1, span, span + 1, 64 * len(s.words), 64*len(s.words) + 130} {
			check(fmt.Sprintf("set %d (span %d, density %.2f)", i, span, density), &s, expected)
		}
	}

	// Past the dense bound: every dense sequence but a few, and overflow
	// sequences inside and beyond expected.
	var s seqSet
	for seq := 0; seq < maxDenseSeq; seq++ {
		if seq%100_003 != 7 {
			s.add(uint32(seq))
		}
	}
	for _, seq := range []uint32{maxDenseSeq, maxDenseSeq + 2, maxDenseSeq + 63, maxDenseSeq + 64, maxDenseSeq + 500, 1 << 30} {
		s.add(seq)
	}
	for _, expected := range []int{maxDenseSeq - 1, maxDenseSeq, maxDenseSeq + 1, maxDenseSeq + 3, maxDenseSeq + 100} {
		check("overflow", &s, expected)
	}
}
