package controller

import (
	"math"
	"math/rand"
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
	cells := len(c.ExportCut(last).Columns[0].Cells)
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
