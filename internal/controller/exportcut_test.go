package controller

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"omniwindow/internal/afr"
	"omniwindow/internal/packet"
	"omniwindow/internal/window"
	"omniwindow/internal/wire"
)

// clusteredKey draws a key of the bench trace's shape: 10.0.x.x sources,
// 192.168.x.x destinations, random ports, TCP or UDP.
func clusteredKey(rng *rand.Rand) packet.FlowKey {
	return packet.FlowKey{
		SrcIP:   0x0A000000 | uint32(rng.Intn(1<<16)),
		DstIP:   0xC0A80000 | uint32(rng.Intn(1<<16)),
		SrcPort: uint16(1024 + rng.Intn(64000)),
		DstPort: uint16(rng.Intn(1 << 16)),
		Proto:   []uint8{packet.ProtoTCP, packet.ProtoUDP}[rng.Intn(2)],
	}
}

// exportFixture is a SlidingPlan(5, 1), two-shard controller after six
// finished sub-windows of flows new clustered keys each, the bench trace's
// churn; it returns the last finished sub-window.
func exportFixture(flows int) (*Controller, uint64) {
	c := New(Config{
		Plan: window.SlidingPlan(5, 1), Kind: afr.Frequency,
		Threshold: math.MaxUint64, Shards: 2,
	})
	rng := rand.New(rand.NewSource(1))
	recs := make([]packet.AFR, flows)
	const subs = 6
	for sw := uint64(0); sw < subs; sw++ {
		for i := range recs {
			recs[i] = packet.AFR{Key: clusteredKey(rng), SubWindow: sw, Attr: uint64(i%7 + 1), Seq: uint32(i)}
		}
		c.IngestAFRs(recs)
		c.FinishSubWindow(sw)
	}
	return c, subs - 1
}

// cutSink keeps the measured cuts live.
var cutSink *wire.Snapshot

// BenchmarkExportCut times one boundary's delta cut: the last finished
// column of ≈ 31 K cells, the flow_churn workload's sub-window.
func BenchmarkExportCut(b *testing.B) {
	c, last := exportFixture(31_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cutSink = c.ExportCut(last)
	}
}

// TestExportCutAllocatesCellsOnce bounds a delta cut's allocation by its
// cells plus a small constant: the sort orders the column in place, so a
// sort scratch the size of the column would fail here.
func TestExportCutAllocatesCellsOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is perturbed by the race detector")
	}
	c, last := exportFixture(31_000)
	cells := len(c.ExportCut(last).Columns[0].Records[0].AFRs)
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cutSink = c.ExportCut(last)
		}
	})
	limit := int64(cells)*int64(unsafe.Sizeof(packet.AFR{})) + 16<<10
	t.Logf("%d cells: %d B/op, %d allocs/op", cells, r.AllocedBytesPerOp(), r.AllocsPerOp())
	if got := r.AllocedBytesPerOp(); got > limit {
		t.Fatalf("ExportCut of %d cells allocated %d B/op, want <= %d", cells, got, limit)
	}
}

// TestExportCutOrdersPendingBySummary: routed-but-unmerged records equal
// in sub-window, sequence, key and attribute are told apart by their
// summaries, so the cut's pending records, and the summaries beside them,
// come out in one order whatever shard count or map order held them. A
// column's cells keep their summaries through the key sort.
func TestExportCutOrdersPendingBySummary(t *testing.T) {
	rec := packet.AFR{Key: fk(1), SubWindow: 4, Attr: 2}
	if comparePending(summarized{rec, packet.Summary{0, 1}}, summarized{rec, packet.Summary{0, 2}}) >= 0 {
		t.Fatal("comparePending does not order equal records by summary")
	}
	cells := &wire.WALRecord{Type: wire.WALColumn, SubWindow: 3,
		AFRs:      []packet.AFR{{Key: fk(9), Attr: 1}, {Key: fk(2), Attr: 1}, {Key: fk(5), Attr: 1}},
		Summaries: []packet.Summary{{9}, {}, {5}}}
	in := &wire.Snapshot{
		Live:             []uint64{3},
		Columns:          []wire.SnapColumn{{SW: 3, Records: []*wire.WALRecord{cells}}},
		Pending:          []packet.AFR{rec, rec, rec, {Key: fk(2), SubWindow: 4, Attr: 2}},
		PendingSummaries: []packet.Summary{{3}, {1}, {2}, {}},
		Dedups:           []wire.SnapDedup{{SW: 4, Expected: -1}},
	}
	for _, shards := range []int{1, 3} {
		c := New(Config{Plan: window.SlidingPlan(3, 1), Kind: afr.Distinction, Shards: shards})
		c.RestoreState(in)
		out := c.ExportState()
		wantPending := []packet.AFR{rec, rec, rec, {Key: fk(2), SubWindow: 4, Attr: 2}}
		wantSumm := []packet.Summary{{1}, {2}, {3}, {}}
		if !slices.Equal(out.Pending, wantPending) || !slices.Equal(out.PendingSummaries, wantSumm) {
			t.Fatalf("%d shards: pending %v %v, want %v %v", shards, out.Pending, out.PendingSummaries, wantPending, wantSumm)
		}
		col := out.Columns[0].Records[0]
		wantCells := []packet.AFR{{Key: fk(2), Attr: 1, SubWindow: 3}, {Key: fk(5), Attr: 1, SubWindow: 3}, {Key: fk(9), Attr: 1, SubWindow: 3}}
		if !slices.Equal(col.AFRs, wantCells) || !slices.Equal(col.Summaries, []packet.Summary{{}, {5}, {9}}) {
			t.Fatalf("%d shards: column %v %v, want each summary beside its cell", shards, col.AFRs, col.Summaries)
		}
	}
}
