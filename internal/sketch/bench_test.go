package sketch

import (
	"testing"

	"omniwindow/internal/packet"
)

// Per-sketch update/query micro-benchmarks, for comparing the software
// cost of the algorithms the framework can host.

func benchKeys(n int) []packet.FlowKey {
	keys := make([]packet.FlowKey, n)
	for i := range keys {
		keys[i] = fk(i)
	}
	return keys
}

func BenchmarkElasticUpdate(b *testing.B) {
	e := NewElastic(4096, 1<<18, 1)
	keys := benchKeys(1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Update(keys[i&1023], 1)
	}
}

func BenchmarkUnivMonUpdate(b *testing.B) {
	u := NewUnivMon(8, 5, 4096, 64, 1)
	keys := benchKeys(1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		u.Update(keys[i&1023], 1)
	}
}

func BenchmarkSpreadSketchUpdate(b *testing.B) {
	s := NewSpreadSketch(4, 4096, 4, 1)
	srcs := benchKeys(256)
	dsts := benchKeys(1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.UpdateSpread(srcs[i&255], dsts[i&1023])
	}
}

func BenchmarkLossRadarInsert(b *testing.B) {
	lr := NewLossRadar(1<<14, 3, 1)
	keys := benchKeys(1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		lr.Insert(PacketID{Key: keys[i&1023], Seq: uint32(i)})
	}
}

func BenchmarkHyperLogLogInsert(b *testing.B) {
	h := NewHyperLogLog(14, 1)
	keys := benchKeys(4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Insert(keys[i&4095])
	}
}

func BenchmarkCountMinQuery(b *testing.B) {
	cm := NewCountMin(4, 1<<16, 1)
	keys := benchKeys(1024)
	for _, k := range keys {
		cm.Update(k, 3)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += cm.Query(keys[i&1023])
	}
	_ = sink
}
