package telemetry

import (
	"math"
	"testing"

	"omniwindow/internal/packet"
	"omniwindow/internal/sketch"
)

func pkt(src, dst uint32, size uint32) *packet.Packet {
	return &packet.Packet{
		Key:  packet.FlowKey{SrcIP: src, DstIP: dst, SrcPort: 1000, DstPort: 80, Proto: packet.ProtoTCP},
		Size: size,
	}
}

func TestFrequencyAppCountsPackets(t *testing.T) {
	app := NewFrequencyApp(sketch.NewCountMin(4, 4096, 1), 4096)
	for i := 0; i < 10; i++ {
		app.Update(pkt(1, 2, 100))
	}
	if got := app.Query(pkt(1, 2, 0).Key).Value; got != 10 {
		t.Fatalf("count = %d", got)
	}
	if app.Query(pkt(9, 9, 0).Key).Summary != (packet.Summary{}) {
		t.Fatal("frequency app must not carry summaries")
	}
}

func TestFrequencyAppCustomVolumeAndKey(t *testing.T) {
	app := NewFrequencyApp(sketch.NewCountMin(4, 4096, 2), 4096)
	app.VolumeOf = func(p *packet.Packet) uint64 { return uint64(p.Size) }
	app.KeyOf = func(p *packet.Packet) packet.FlowKey { return p.Key.DstHostKey() }
	app.Update(pkt(1, 7, 100))
	app.Update(pkt(2, 7, 250))
	host := packet.FlowKey{DstIP: 7, Proto: packet.ProtoTCP}
	if got := app.Query(host).Value; got != 350 {
		t.Fatalf("bytes = %d", got)
	}
}

func TestFrequencyAppResetViaSlots(t *testing.T) {
	app := NewFrequencyApp(sketch.NewCountMin(2, 64, 3), 64)
	app.Update(pkt(1, 2, 100))
	for i := 0; i < app.Slots()-1; i++ {
		app.ResetSlot(i)
	}
	if app.Query(pkt(1, 2, 0).Key).Value == 0 {
		t.Fatal("state cleared before enumeration finished")
	}
	app.ResetSlot(app.Slots() - 1)
	if got := app.Query(pkt(1, 2, 0).Key).Value; got != 0 {
		t.Fatalf("state survived reset: %d", got)
	}
}

func TestFrequencyAppValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewFrequencyApp(sketch.NewCountMin(2, 64, 1), 0)
}

func TestSpreadSketchAppQueriesAndSummaries(t *testing.T) {
	s := sketch.NewSpreadSketch(4, 4096, 4, 1)
	app := NewSpreadSketchApp(s, 4096)
	for d := 0; d < 200; d++ {
		app.Update(pkt(42, uint32(1000+d), 100))
	}
	src := packet.FlowKey{SrcIP: 42, Proto: packet.ProtoTCP}
	a := app.Query(src)
	if a.Value < 80 {
		t.Fatalf("spread too low: %d", a.Value)
	}
	if a.Summary == (packet.Summary{}) {
		t.Fatal("missing summary")
	}
	// The summary itself must estimate in the right ballpark.
	est := sketch.MRBEstimate(a.Summary[:])
	if est < 80 || est > 500 {
		t.Fatalf("summary estimate out of range: %f", est)
	}
}

func TestSpreadSummaryMergeAcrossSubWindows(t *testing.T) {
	// Two sub-windows observing the SAME destinations: OR-merged
	// summaries must not double the count (the §4.1 motivation for AFRs
	// carrying mergeable summaries).
	s1 := sketch.NewSpreadSketch(4, 4096, 4, 2)
	s2 := sketch.NewSpreadSketch(4, 4096, 4, 2)
	a1, a2 := NewSpreadSketchApp(s1, 4096), NewSpreadSketchApp(s2, 4096)
	for d := 0; d < 150; d++ {
		a1.Update(pkt(42, uint32(1000+d), 100))
		a2.Update(pkt(42, uint32(1000+d), 100))
	}
	src := packet.FlowKey{SrcIP: 42, Proto: packet.ProtoTCP}
	q1, q2 := a1.Query(src), a2.Query(src)
	var merged [4]uint64
	for i := range merged {
		merged[i] = q1.Summary[i] | q2.Summary[i]
	}
	mergedEst := sketch.MRBEstimate(merged[:])
	singleEst := sketch.MRBEstimate(q1.Summary[:])
	if mergedEst > singleEst*1.3 {
		t.Fatalf("identical sub-windows double-counted: %f vs %f", mergedEst, singleEst)
	}
	// Summing scalars (the naive strategy) WOULD double:
	if q1.Value+q2.Value < uint64(float64(q1.Value)*1.8) {
		t.Fatal("test premise broken")
	}
}

func TestVBFAppSummaryCounter(t *testing.T) {
	v := sketch.NewVBF(5, 4096, 1)
	app := NewVBFApp(v, 4096)
	for d := 0; d < 30; d++ {
		app.Update(pkt(42, uint32(2000+d), 100))
	}
	src := packet.FlowKey{SrcIP: 42, Proto: packet.ProtoTCP}
	a := app.Query(src)
	if a.Summary == (packet.Summary{}) {
		t.Fatal("VBF app must carry summary")
	}
	got := sketch.VBFDistinctCounter(a.Summary)
	if got < 15 || got > 60 {
		t.Fatalf("VBF summary count = %d want ~30", got)
	}
}

func TestSpreadAppReset(t *testing.T) {
	s := sketch.NewSpreadSketch(2, 256, 4, 3)
	app := NewSpreadSketchApp(s, 256)
	app.Update(pkt(1, 2, 100))
	for i := 0; i < app.Slots(); i++ {
		app.ResetSlot(i)
	}
	src := packet.FlowKey{SrcIP: 1, Proto: packet.ProtoTCP}
	if app.Query(src).Value != 0 {
		t.Fatal("reset kept spread state")
	}
}

func TestCardinalityImplementations(t *testing.T) {
	for name, c := range map[string]Cardinality{
		"lc":    NewLCCard(1<<14, 1),
		"hll":   NewHLLCard(1<<12, 1),
		"exact": NewExactCard(),
	} {
		const n = 5000
		for i := 0; i < n; i++ {
			c.Insert(packet.FlowKey{SrcIP: uint32(i), Proto: 6})
		}
		est := c.Estimate()
		if math.Abs(est-n)/n > 0.1 {
			t.Fatalf("%s estimate %f too far from %d", name, est, n)
		}
		c.Reset()
		if c.Estimate() != 0 {
			t.Fatalf("%s reset failed", name)
		}
	}
}

func TestCardinalityMergeEqualsUnion(t *testing.T) {
	for name, mk := range map[string]func() Cardinality{
		"lc":    func() Cardinality { return NewLCCard(1<<14, 7) },
		"hll":   func() Cardinality { return NewHLLCard(1<<12, 7) },
		"exact": func() Cardinality { return NewExactCard() },
	} {
		a, b, u := mk(), mk(), mk()
		for i := 0; i < 3000; i++ {
			k := packet.FlowKey{SrcIP: uint32(i), Proto: 6}
			a.Insert(k)
			u.Insert(k)
		}
		for i := 1500; i < 4500; i++ {
			k := packet.FlowKey{SrcIP: uint32(i), Proto: 6}
			b.Insert(k)
			u.Insert(k)
		}
		a.Merge(b)
		if a.Estimate() != u.Estimate() {
			t.Fatalf("%s merge lossy: %f vs %f", name, a.Estimate(), u.Estimate())
		}
	}
}

func TestCardinalityCloneIsEmptyAndCompatible(t *testing.T) {
	for name, c := range map[string]Cardinality{
		"lc":    NewLCCard(1<<14, 9),
		"hll":   NewHLLCard(1<<12, 9),
		"exact": NewExactCard(),
	} {
		c.Insert(packet.FlowKey{SrcIP: 1})
		cl := c.Clone()
		if cl.Estimate() != 0 {
			t.Fatalf("%s clone not empty", name)
		}
		cl.Merge(c) // must not panic: same shape
		if cl.Estimate() == 0 {
			t.Fatalf("%s clone merge lost data", name)
		}
	}
}
