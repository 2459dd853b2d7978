package controller

import (
	"fmt"
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

// sortCell is the cell the sort tests move: its payload is a function of
// its key, so equal keys make equal cells and the sorted sequence is one
// sequence however an unstable sort breaks ties.
func sortCell(k packet.FlowKey) packet.AFR {
	a := uint64(k.SrcIP)<<32 | uint64(k.DstIP)
	b := uint64(k.SrcPort)<<24 | uint64(k.DstPort)<<8 | uint64(k.Proto)
	return packet.AFR{
		Key: k, Attr: a ^ b*0x9E3779B97F4A7C15, SubWindow: 3,
		HasDistinct: k.Proto&1 == 1, Distinct: [4]uint64{a, b},
	}
}

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

// checkSortCells sorts a clone of cells both ways and fails on the first
// difference.
func checkSortCells(t *testing.T, cells []packet.AFR) {
	t.Helper()
	want := slices.Clone(cells)
	slices.SortFunc(want, func(a, b packet.AFR) int { return packetKeyCmp(a.Key, b.Key) })
	got := slices.Clone(cells)
	sortCells(got, 0)
	if slices.Equal(got, want) {
		return
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%d cells: at %d got key %+v, want %+v", len(cells), i, got[i].Key, want[i].Key)
		}
	}
}

// TestSortCellsMatchesKeyCmp holds the radix sort to the comparison order
// it replaced, on sizes around the insertion-sort cutoff and one bucket
// count, and on key shapes that share prefixes (skipped bytes), split on
// the last byte only, or arrive already ordered.
func TestSortCellsMatchesKeyCmp(t *testing.T) {
	shapes := map[string]func(rng *rand.Rand, i int) packet.FlowKey{
		"uniform": func(rng *rand.Rand, _ int) packet.FlowKey {
			k := randomKey(rng)
			k.Proto = uint8(rng.Intn(256))
			return k
		},
		"clustered": func(rng *rand.Rand, _ int) packet.FlowKey { return clusteredKey(rng) },
		"one-pair": func(rng *rand.Rand, _ int) packet.FlowKey {
			return packet.FlowKey{
				SrcIP: 0x0A000001, DstIP: 0xC0A80001, Proto: packet.ProtoTCP,
				SrcPort: uint16(rng.Intn(1 << 16)), DstPort: uint16(rng.Intn(1 << 16)),
			}
		},
		"proto-only": func(rng *rand.Rand, _ int) packet.FlowKey {
			return packet.FlowKey{SrcIP: 0x0A000001, DstIP: 0xC0A80001, SrcPort: 80, DstPort: 443, Proto: uint8(rng.Intn(256))}
		},
		"ascending":  func(_ *rand.Rand, i int) packet.FlowKey { return orderedKey(i) },
		"descending": func(_ *rand.Rand, i int) packet.FlowKey { return orderedKey(1<<24 - 1 - i) },
	}
	for name, key := range shapes {
		for _, n := range []int{0, 1, sortCutoff - 1, sortCutoff, sortCutoff + 1, 256, 257, 40_000} {
			t.Run(fmt.Sprintf("%s/%d", name, n), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(n)))
				cells := make([]packet.AFR, n)
				for i := range cells {
					cells[i] = sortCell(key(rng, i))
				}
				checkSortCells(t, cells)
			})
		}
	}
}

// orderedKey is the i-th of 1<<24 keys in ascending key order: i is the
// low 24 bits of a 10.x source, and the other fields vary with it.
func orderedKey(i int) packet.FlowKey {
	return packet.FlowKey{
		SrcIP:   0x0A000000 | uint32(i)&0xFFFFFF,
		DstIP:   0xC0A80000 | uint32(i*7919)&0xFFFF,
		SrcPort: uint16(i * 31), DstPort: 443, Proto: packet.ProtoTCP,
	}
}

// FuzzSortCells decodes one key per 13 input bytes and holds the radix
// sort to the comparison order.
func FuzzSortCells(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{3, sortCutoff + 1, 300} {
		var seed []byte
		for range n {
			k := clusteredKey(rng).Bytes()
			seed = append(seed, k[:]...)
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cells := make([]packet.AFR, 0, len(data)/packet.KeyBytes)
		for ; len(data) >= packet.KeyBytes; data = data[packet.KeyBytes:] {
			cells = append(cells, sortCell(packet.KeyFromBytes([packet.KeyBytes]byte(data))))
		}
		checkSortCells(t, cells)
	})
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
