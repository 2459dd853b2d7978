package sketch

import (
	"math/rand"
	"testing"
)

func pid(flow, seq int) PacketID {
	return PacketID{Key: fk(flow), Seq: uint32(seq)}
}

func TestLossRadarDecodesLosses(t *testing.T) {
	up := NewLossRadar(1024, 3, 1)
	down := NewLossRadar(1024, 3, 1)
	rng := rand.New(rand.NewSource(1))
	lostTruth := map[PacketID]bool{}
	for i := 0; i < 5000; i++ {
		id := pid(rng.Intn(400), i)
		up.Insert(id)
		if rng.Float64() < 0.01 { // ~1% loss
			lostTruth[id] = true
			continue
		}
		down.Insert(id)
	}
	up.Subtract(down)
	lost, extra, ok := up.Decode()
	if !ok {
		t.Fatal("decode stalled")
	}
	if len(extra) != 0 {
		t.Fatalf("unexpected extras: %d", len(extra))
	}
	if len(lost) != len(lostTruth) {
		t.Fatalf("decoded %d losses want %d", len(lost), len(lostTruth))
	}
	for _, id := range lost {
		if !lostTruth[id] {
			t.Fatalf("false loss %v", id)
		}
	}
}

func TestLossRadarNoLossEmptyDiff(t *testing.T) {
	up := NewLossRadar(256, 3, 2)
	down := NewLossRadar(256, 3, 2)
	for i := 0; i < 1000; i++ {
		id := pid(i%50, i)
		up.Insert(id)
		down.Insert(id)
	}
	up.Subtract(down)
	lost, extra, ok := up.Decode()
	if !ok || len(lost) != 0 || len(extra) != 0 {
		t.Fatalf("clean diff decoded lost=%d extra=%d ok=%v", len(lost), len(extra), ok)
	}
}

func TestLossRadarDetectsExtras(t *testing.T) {
	// A packet counted only downstream (e.g. measured into different
	// windows by the two meters) shows up with negative sign.
	up := NewLossRadar(256, 3, 3)
	down := NewLossRadar(256, 3, 3)
	shared := pid(1, 1)
	up.Insert(shared)
	down.Insert(shared)
	ghost := pid(2, 2)
	down.Insert(ghost)
	up.Subtract(down)
	lost, extra, ok := up.Decode()
	if !ok {
		t.Fatal("decode stalled")
	}
	if len(lost) != 0 || len(extra) != 1 || extra[0] != ghost {
		t.Fatalf("lost=%v extra=%v", lost, extra)
	}
}

func TestLossRadarOverload(t *testing.T) {
	// Too many losses for the cell budget: Decode must report failure,
	// not loop or fabricate.
	up := NewLossRadar(16, 3, 4)
	down := NewLossRadar(16, 3, 4)
	for i := 0; i < 500; i++ {
		up.Insert(pid(i, i))
	}
	up.Subtract(down)
	_, _, ok := up.Decode()
	if ok {
		t.Fatal("overloaded decode claimed success")
	}
}

func TestLossRadarIncompatibleSubtractPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewLossRadar(64, 3, 1).Subtract(NewLossRadar(128, 3, 1))
}

func TestLossRadarReset(t *testing.T) {
	lr := NewLossRadar(64, 3, 5)
	lr.Insert(pid(1, 1))
	lr.Reset()
	lost, extra, ok := lr.Decode()
	if !ok || len(lost) != 0 || len(extra) != 0 {
		t.Fatal("reset meter not empty")
	}
}

func TestSlidingQueryCombinesWindows(t *testing.T) {
	s := NewSliding(NewCountMin(4, 512, 1), NewCountMin(4, 512, 1))
	s.Update(fk(1), 10)
	s.Advance()
	s.Update(fk(1), 7)
	// Query covers current + previous window.
	if got := s.Query(fk(1)); got != 17 {
		t.Fatalf("sliding query = %d want 17", got)
	}
	s.Advance()
	if got := s.Query(fk(1)); got != 7 {
		t.Fatalf("after advance query = %d want 7", got)
	}
	s.Advance()
	if got := s.Query(fk(1)); got != 0 {
		t.Fatalf("after two advances query = %d want 0", got)
	}
}

func TestSlidingOverestimatesWindow(t *testing.T) {
	// The defining artifact of Sliding Sketch: right after an advance,
	// a query still includes the whole previous window even though only
	// part of it lies within the sliding window.
	s := NewSliding(NewCountMin(4, 512, 2), NewCountMin(4, 512, 2))
	s.Update(fk(2), 100)
	s.Advance()
	if got := s.Query(fk(2)); got != 100 {
		t.Fatalf("stale mass not reported: %d", got)
	}
}

func TestSlidingResetAndMemory(t *testing.T) {
	cur := NewCountMin(4, 256, 3)
	prev := NewCountMin(4, 256, 3)
	s := NewSliding(cur, prev)
	s.Update(fk(1), 5)
	s.Reset()
	if s.Query(fk(1)) != 0 {
		t.Fatal("reset did not clear")
	}
	if s.MemoryBytes() != cur.MemoryBytes()+prev.MemoryBytes() {
		t.Fatal("memory accounting wrong")
	}
}

func TestBloomBasics(t *testing.T) {
	b := NewBloom(1<<12, 3, 1)
	if b.Contains(fk(1)) {
		t.Fatal("empty filter claims membership")
	}
	b.Add(fk(1))
	if !b.Contains(fk(1)) {
		t.Fatal("no false negatives allowed")
	}
	if got := b.TestAndAdd(fk(1)); !got {
		t.Fatal("TestAndAdd should report presence")
	}
	if got := b.TestAndAdd(fk(2)); got {
		t.Fatal("TestAndAdd reported false presence")
	}
	if !b.Contains(fk(2)) {
		t.Fatal("TestAndAdd did not insert")
	}
	b.Reset()
	if b.Contains(fk(1)) {
		t.Fatal("reset did not clear")
	}
	if b.Hashes() != 3 {
		t.Fatalf("hashes = %d", b.Hashes())
	}
}

func TestBloomFalsePositiveRateBounded(t *testing.T) {
	b := NewBloom(1<<15, 4, 2)
	for i := 0; i < 2000; i++ {
		b.Add(fk(i))
	}
	fp := 0
	const probes = 10000
	for i := 0; i < probes; i++ {
		if b.Contains(fk(1<<24 + i)) {
			fp++
		}
	}
	if fp > probes/50 { // theoretical rate well under 1%
		t.Fatalf("false positive rate too high: %d/%d", fp, probes)
	}
}
