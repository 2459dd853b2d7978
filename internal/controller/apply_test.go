package controller

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"omniwindow/internal/afr"
	"omniwindow/internal/packet"
	"omniwindow/internal/window"
	"omniwindow/internal/wire"
)

// applyEvent is one input of a delivery stream, in the form both of the
// controller's entry shapes can take: a batch (retransmitted or not), a
// trigger, a spike copy, a shed note, or a finish.
type applyEvent struct {
	kind    byte // a wire.WAL* record type
	sw      uint64
	recs    []packet.AFR
	summ    []packet.Summary
	retrans bool
	count   uint32 // the trigger's key count, or the shed's record count
}

// applyStream builds a seeded delivery stream over sub-windows 0..n-1. Each
// sub-window is announced, delivered in batches with gaps, re-announced
// lower, partly repaired by retransmits and duplicated; batches straddle
// two sub-windows, spikes (duplicate copies included) and shed notes land
// on open sub-windows, and batches and triggers of finished ones arrive
// late. Sub-window sw finishes once sw+1 has been delivered.
func applyStream(seed int64, n int, summaries bool) []applyEvent {
	rng := rand.New(rand.NewSource(seed))
	const keys = 48
	var ev []applyEvent
	records := func(sw uint64) ([]packet.AFR, []packet.Summary) {
		recs := make([]packet.AFR, keys)
		var summ []packet.Summary
		for i := range recs {
			id := i
			if i%3 != 0 {
				id = int(sw)*keys + i // a third of the keys persist
			}
			recs[i] = packet.AFR{Key: fk(id), SubWindow: sw, Attr: uint64(rng.Intn(9) + 1), Seq: uint32(i)}
			if summaries {
				summ = append(summ, packet.Summary{1 << (uint(i+int(sw)) % 64), uint64(i)})
			}
		}
		return recs, summ
	}
	batch := func(recs []packet.AFR, summ []packet.Summary, retrans bool) {
		ev = append(ev, applyEvent{kind: wire.WALAFRBatch, sw: recs[0].SubWindow, recs: recs, summ: summ, retrans: retrans})
	}
	var prevTail []packet.AFR
	var prevTailSumm []packet.Summary
	for sw := uint64(0); sw < uint64(n); sw++ {
		recs, summ := records(sw)
		ev = append(ev, applyEvent{kind: wire.WALTrigger, sw: sw, count: keys})
		// First deliveries, every fifth record lost; the last batch
		// carries the previous sub-window's held-back tail.
		var kept []packet.AFR
		var keptSumm []packet.Summary
		for i := range recs {
			if i%5 != 2 {
				kept = append(kept, recs[i])
				if summaries {
					keptSumm = append(keptSumm, summ[i])
				}
			}
		}
		tail := len(kept) - 6
		for off := 0; off < tail; off += 10 {
			end := min(off+10, tail)
			batch(kept[off:end], packet.SummarySlice(keptSumm, off, end), false)
			if rng.Intn(3) == 0 {
				batch(kept[off:end], packet.SummarySlice(keptSumm, off, end), false) // duplicate
			}
		}
		if prevTail != nil {
			mixed := append(append([]packet.AFR(nil), prevTail...), kept[:2]...)
			var mixedSumm []packet.Summary
			if summaries {
				mixedSumm = append(append([]packet.Summary(nil), prevTailSumm...), keptSumm[:2]...)
			}
			batch(mixed, mixedSumm, false)
		}
		prevTail, prevTailSumm = kept[tail:], packet.SummarySlice(keptSumm, tail, len(kept))
		// A lower re-announce must not erase the expectation.
		ev = append(ev, applyEvent{kind: wire.WALTrigger, sw: sw, count: keys / 2})
		// Retransmits repair the odd sub-windows' gaps, twice over.
		if sw%2 == 1 {
			var lost []packet.AFR
			var lostSumm []packet.Summary
			for i := 2; i < len(recs); i += 5 {
				lost = append(lost, recs[i])
				if summaries {
					lostSumm = append(lostSumm, summ[i])
				}
			}
			batch(lost, lostSumm, true)
			batch(lost[:3], packet.SummarySlice(lostSumm, 0, 3), true)
		}
		// Spikes into the open previous sub-window, one copy twice.
		if sw > 0 {
			for i := 0; i < 3; i++ {
				sp := packet.AFR{Key: fk(rng.Intn(keys)), SubWindow: sw - 1, Attr: 1, Seq: uint32(1000 + i)}
				ev = append(ev, applyEvent{kind: wire.WALSpike, sw: sw - 1, recs: []packet.AFR{sp}})
				if i == 1 {
					ev = append(ev, applyEvent{kind: wire.WALSpike, sw: sw - 1, recs: []packet.AFR{sp}})
				}
			}
		}
		if sw%3 == 0 {
			ev = append(ev, applyEvent{kind: wire.WALShed, sw: sw, count: uint32(rng.Intn(4) + 1)})
		}
		if sw > 0 {
			ev = append(ev, applyEvent{kind: wire.WALFinish, sw: sw - 1})
		}
		// Late arrivals for a finished sub-window: a batch, a trigger, a
		// spike and a shed note.
		if sw > 1 {
			old, oldSumm := records(sw - 2)
			batch(old[:4], packet.SummarySlice(oldSumm, 0, 4), sw%2 == 0)
			ev = append(ev, applyEvent{kind: wire.WALTrigger, sw: sw - 2, count: keys + 5})
			ev = append(ev, applyEvent{kind: wire.WALSpike, sw: sw - 2, recs: []packet.AFR{{Key: fk(1), SubWindow: sw - 2, Attr: 1, Seq: 7}}})
			ev = append(ev, applyEvent{kind: wire.WALShed, sw: sw - 2, count: 2})
		}
	}
	batch(prevTail, prevTailSumm, false)
	ev = append(ev, applyEvent{kind: wire.WALFinish, sw: uint64(n - 1)})
	return ev
}

// receiveEvent feeds e the way a packet holder does: batches and triggers
// as packets through Receive, spikes and sheds through their own calls.
func receiveEvent(c *Controller, e applyEvent) {
	switch e.kind {
	case wire.WALAFRBatch:
		flag := packet.OWAFR
		if e.retrans {
			flag = packet.OWRetransmit
		}
		c.Receive(&packet.Packet{OW: packet.OWHeader{Flag: flag, SubWindow: e.sw, AFRs: e.recs, Summaries: e.summ}})
	case wire.WALTrigger:
		c.Receive(&packet.Packet{OW: packet.OWHeader{Flag: packet.OWTrigger, SubWindow: e.sw, KeyCount: e.count}})
	case wire.WALSpike:
		for _, sp := range e.recs {
			c.IngestSpike(sp)
		}
	case wire.WALShed:
		c.NoteShed(e.sw, int(e.count))
	}
}

// applyRecord feeds e as the record the write-ahead log stores for it.
func applyRecord(c *Controller, e applyEvent) {
	c.Apply(&wire.WALRecord{Type: e.kind, SubWindow: e.sw, AFRs: e.recs, Summaries: e.summ,
		Retrans: e.retrans, KeyCount: e.count, Count: e.count})
}

// TestApplyMatchesReceive pins Receive, the packet adapter the UDP
// collector example and the benchmark's ladder still use, to Apply, the
// one input the deployment and WAL replay use: one delivery stream fed as
// packets (with direct spike and shed calls) and as records must assemble
// the same windows and export byte-identical state after every finish, at
// one shard and at three, with and without summaries.
func TestApplyMatchesReceive(t *testing.T) {
	// The thresholds catch the persistent keys: a third of the keys recur
	// in every sub-window, with attrs of 1–9 and a new summary bit each.
	for _, tc := range []struct {
		kind      afr.Kind
		threshold uint64
	}{{afr.Frequency, 12}, {afr.Distinction, 2}} {
		kind, threshold := tc.kind, tc.threshold
		for _, shards := range []int{1, 3} {
			t.Run(fmt.Sprintf("%v/shards%d", kind, shards), func(t *testing.T) {
				cfg := Config{Plan: window.SlidingPlan(3, 1), Kind: kind, Threshold: threshold, CaptureValues: true, Shards: shards}
				byPacket, byRecord := New(cfg), New(cfg)
				finishes, incomplete, spiked, shed, detected := 0, 0, 0, 0, 0
				for i, e := range applyStream(7, 9, kind == afr.Distinction) {
					if e.kind != wire.WALFinish {
						receiveEvent(byPacket, e)
						applyRecord(byRecord, e)
						continue
					}
					finishes++
					got, want := byRecord.FinishSubWindow(e.sw), byPacket.FinishSubWindow(e.sw)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("event %d, finish of %d: Apply assembled %+v, Receive %+v", i, e.sw, got, want)
					}
					for _, w := range got {
						incomplete += b2i(w.Incomplete)
						spiked += b2i(w.SpikePackets > 0)
						shed += b2i(w.ShedAFRs > 0)
						detected += len(w.Detected)
					}
					a, b := wire.EncodeSnapshot(nil, byRecord.ExportState()), wire.EncodeSnapshot(nil, byPacket.ExportState())
					if !bytes.Equal(a, b) {
						t.Fatalf("event %d, finish of %d: exported state differs (%d vs %d bytes)", i, e.sw, len(a), len(b))
					}
				}
				// The stream must exercise what it claims to: gaps left open,
				// spikes and sheds reaching windows, flows detected.
				if finishes != 9 || incomplete == 0 || spiked == 0 || shed == 0 || detected == 0 {
					t.Fatalf("stream too tame: %d finishes, %d incomplete, %d spiked, %d shed windows, %d detections",
						finishes, incomplete, spiked, shed, detected)
				}
			})
		}
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
