package controller

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"omniwindow/internal/afr"
	"omniwindow/internal/packet"
	"omniwindow/internal/window"
	"omniwindow/internal/wire"
)

// TestRestoreFoldsLoggedColumn: a live column restored from the records
// the write-ahead log holds for it — every batch as logged, duplicated
// first transmissions and retransmits of sequences already arrived among
// them, every spike copy the live controller merged, one of them sharing
// an AFR's sequence number, and, for the newest live column, a column
// record that supersedes the frames before it — restores the state a cut
// of the live controller does: byte-identical exports, and the same
// windows as each other and as the live controller over every finish
// after the cut. Cut at each finish of applyStream's delivery stream
// under SlidingPlan(4, 1), so that two columns restored from their frames
// share one sequence space, for a frequency app and a distinct-count app,
// at one shard and at three.
func TestRestoreFoldsLoggedColumn(t *testing.T) {
	for _, tc := range []struct {
		kind      afr.Kind
		threshold uint64
	}{{afr.Frequency, 12}, {afr.Distinction, 2}} {
		for _, shards := range []int{1, 3} {
			t.Run(fmt.Sprintf("%v/shards%d", tc.kind, shards), func(t *testing.T) {
				cfg := Config{Plan: window.SlidingPlan(4, 1), Kind: tc.kind, Threshold: tc.threshold, CaptureValues: true, Shards: shards}
				events := applyStream(7, 9, tc.kind == afr.Distinction)
				// A spike into sub-window 2 whose packet Seq is an AFR's:
				// spikes bypass the AFR sequence dedup.
				at := slices.IndexFunc(events, func(e applyEvent) bool { return e.kind == wire.WALFinish && e.sw == 2 })
				spike := packet.AFR{Key: fk(500), SubWindow: 2, Attr: 1, Seq: 4}
				events = slices.Insert(events, at, applyEvent{kind: wire.WALSpike, sw: 2, recs: []packet.AFR{spike}})
				var seen logShape
				for cut, e := range events {
					if e.kind == wire.WALFinish {
						seen.add(restoreAtCut(t, cfg, events, cut))
					}
				}
				if seen.dups == 0 || seen.retransDups == 0 || seen.spikeSeqs == 0 || seen.superseded == 0 {
					t.Fatalf("stream too tame: %+v", seen)
				}
			})
		}
	}
}

// logShape counts what the restored columns' records exercised: batch
// AFRs repeating a first transmission's sequence number, retransmitted
// ones repeating a sequence already arrived, spikes whose Seq an AFR of
// the column also carries, and frames a column record superseded.
type logShape struct{ dups, retransDups, spikeSeqs, superseded int }

func (s *logShape) add(o logShape) {
	s.dups += o.dups
	s.retransDups += o.retransDups
	s.spikeSeqs += o.spikeSeqs
	s.superseded += o.superseded
}

// restoreAtCut runs events[:cut+1] (the cut-th a finish) through a live
// controller, logging each record the way the deployment does — a batch
// one record per run of equal sub-windows, a spike only once the live
// controller merged it — and restores two controllers: one from the live
// controller's full cut, one from its manifest with each live column as
// the records the log holds for it up to the finish that closed it. Both
// must export the same bytes, and they and the live controller must
// assemble the same windows over the rest of the stream.
func restoreAtCut(t *testing.T, cfg Config, events []applyEvent, cut int) logShape {
	t.Helper()
	live := New(cfg)
	logs := map[uint64][]*wire.WALRecord{}
	closed := func(sw uint64) bool { last, ok := live.LastFinished(); return ok && sw <= last }
	log := func(rec *wire.WALRecord) {
		if !closed(rec.SubWindow) {
			logs[rec.SubWindow] = append(logs[rec.SubWindow], rec)
		}
	}
	for _, e := range events[:cut+1] {
		switch e.kind {
		case wire.WALAFRBatch:
			for i, j := 0, 0; i < len(e.recs); i = j {
				sw := e.recs[i].SubWindow
				for j = i + 1; j < len(e.recs) && e.recs[j].SubWindow == sw; j++ {
				}
				log(&wire.WALRecord{Type: wire.WALAFRBatch, SubWindow: sw, Retrans: e.retrans,
					AFRs: e.recs[i:j], Summaries: packet.SummarySlice(e.summ, i, j)})
			}
			applyRecord(live, e)
		case wire.WALSpike:
			for _, sp := range e.recs {
				if live.IngestSpike(sp) {
					log(&wire.WALRecord{Type: wire.WALSpike, SubWindow: sp.SubWindow, AFRs: []packet.AFR{sp}})
				}
			}
		case wire.WALFinish:
			live.FinishSubWindow(e.sw)
		default:
			applyRecord(live, e)
		}
	}
	cutState := live.ExportState()
	fromLog := *cutState
	fromLog.Columns = nil
	var shape logShape
	for i, sw := range cutState.Live {
		recs := logs[sw]
		shape.add(shapeOf(recs))
		if i == len(cutState.Live)-1 && len(recs) > 0 {
			recs = append(slices.Clone(recs), cutState.Columns[i].Records...)
			shape.superseded += len(recs) - 1
		}
		fromLog.Columns = append(fromLog.Columns, wire.SnapColumn{SW: sw, Records: recs})
	}
	byLog, byCut := New(cfg), New(cfg)
	byLog.RestoreState(&fromLog)
	byCut.RestoreState(cutState)
	if a, b := snapBytes(byLog.ExportState()), snapBytes(byCut.ExportState()); !bytes.Equal(a, b) {
		t.Fatalf("cut at event %d: restored from the log, the export differs from the cut's (%d vs %d bytes)", cut, len(a), len(b))
	}
	for i, e := range events[cut+1:] {
		if e.kind != wire.WALFinish {
			applyRecord(byLog, e)
			applyRecord(byCut, e)
			applyRecord(live, e)
			continue
		}
		got, want, ran := byLog.FinishSubWindow(e.sw), byCut.FinishSubWindow(e.sw), live.FinishSubWindow(e.sw)
		if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(got, ran) {
			t.Fatalf("cut at event %d, finish of %d (event %d): from the log %+v, from the cut %+v, live %+v",
				cut, e.sw, cut+1+i, got, want, ran)
		}
	}
	return shape
}

// shapeOf counts what one column's logged records exercise (logShape).
func shapeOf(recs []*wire.WALRecord) logShape {
	var s logShape
	first, retrans := map[uint32]bool{}, map[uint32]bool{}
	for _, r := range recs {
		if r.Type != wire.WALAFRBatch {
			continue
		}
		for _, a := range r.AFRs {
			switch {
			case !r.Retrans && first[a.Seq]:
				s.dups++
			case r.Retrans && (first[a.Seq] || retrans[a.Seq]):
				s.retransDups++
			}
			if r.Retrans {
				retrans[a.Seq] = true
			} else {
				first[a.Seq] = true
			}
		}
	}
	for _, r := range recs {
		if r.Type == wire.WALSpike && (first[r.AFRs[0].Seq] || retrans[r.AFRs[0].Seq]) {
			s.spikeSeqs++
		}
	}
	return s
}
