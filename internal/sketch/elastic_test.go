package sketch

import (
	"math/rand"
	"testing"

	"omniwindow/internal/packet"
)

func TestElasticDetectsHeavyHitters(t *testing.T) {
	stream, truth := skewedStream(21, 10, 500, 3000)
	e := NewElastic(2048, 1<<16, 1)
	for _, k := range stream {
		e.Update(k, 1)
	}
	const thr = 400
	reported := map[packet.FlowKey]bool{}
	for _, k := range e.HeavyKeys(thr) {
		reported[k] = true
	}
	missed := 0
	for k, c := range truth {
		if c >= 500 && !reported[k] {
			missed++
		}
	}
	if missed > 1 {
		t.Fatalf("Elastic missed %d/10 heavy keys", missed)
	}
	for k := range reported {
		if truth[k] < thr/2 {
			t.Fatalf("Elastic reported mouse %v (count %d)", k, truth[k])
		}
	}
}

func TestElasticHeavyQueryAccuracy(t *testing.T) {
	// Elephants that settle in the heavy part are counted near-exactly.
	e := NewElastic(1024, 1<<16, 2)
	for i := 0; i < 1000; i++ {
		e.Update(fk(7), 1)
	}
	if got := e.Query(fk(7)); got < 990 || got > 1010 {
		t.Fatalf("heavy query = %d want ~1000", got)
	}
}

func TestElasticEvictionPreservesTotals(t *testing.T) {
	// A single bucket fought over by two flows: the loser's mass must
	// survive in the light part (total conservation within CM
	// overestimation).
	e := NewElastic(1, 1<<14, 3)
	for i := 0; i < 50; i++ {
		e.Update(fk(1), 1)
	}
	for i := 0; i < 600; i++ {
		e.Update(fk(2), 1)
	}
	if got := e.Query(fk(1)); got < 50 {
		t.Fatalf("evicted flow lost mass: %d", got)
	}
	if got := e.Query(fk(2)); got < 500 {
		t.Fatalf("winner undercounted: %d", got)
	}
}

func TestElasticLightPartAbsorbsMice(t *testing.T) {
	e := NewElastic(64, 1<<16, 4)
	rng := rand.New(rand.NewSource(5))
	truth := map[packet.FlowKey]uint64{}
	for i := 0; i < 20000; i++ {
		k := fk(rng.Intn(3000))
		e.Update(k, 1)
		truth[k]++
	}
	// Count-Min semantics in the light part: no underestimation beyond
	// the heavy-part bookkeeping.
	under := 0
	for k, c := range truth {
		if e.Query(k) < c {
			under++
		}
	}
	if under > 0 {
		t.Fatalf("%d flows underestimated", under)
	}
}

func TestElasticResetAndMemory(t *testing.T) {
	e := NewElasticBytes(1<<18, 6)
	e.Update(fk(1), 5)
	e.Reset()
	if e.Query(fk(1)) != 0 {
		t.Fatal("reset did not clear")
	}
	if e.MemoryBytes() > 1<<18+ElasticBucketBytes {
		t.Fatalf("memory %d over budget", e.MemoryBytes())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewElastic(0, 10, 1)
}
