package pool

import (
	"sync"
	"testing"

	"omniwindow/internal/packet"
)

// reset restores the package to a clean enabled state and drains every
// free list, so tests do not see each other's buffers.
func reset(t *testing.T) {
	t.Helper()
	SetEnabled(true)
	SetDebug(false)
	for i := range afrClasses {
		afrClasses[i].mu.Lock()
		afrClasses[i].free = nil
		afrClasses[i].mu.Unlock()
	}
	t.Cleanup(func() {
		SetEnabled(true)
		SetDebug(false)
	})
}

func TestClassFor(t *testing.T) {
	cases := []struct{ n, class int }{
		{0, 0}, {1, 0}, {64, 0}, {65, 1}, {128, 1}, {129, 2},
		{1 << 17, numClasses - 1}, {1<<17 + 1, -1},
	}
	for _, tc := range cases {
		if got := classFor(tc.n); got != tc.class {
			t.Errorf("classFor(%d) = %d, want %d", tc.n, got, tc.class)
		}
	}
}

func TestClassOf(t *testing.T) {
	cases := []struct{ c, class int }{
		{63, -1}, {64, 0}, {127, 0}, {128, 1}, {1 << 17, numClasses - 1},
		{1<<17 + 500, -1},
	}
	for _, tc := range cases {
		if got := classOf(tc.c); got != tc.class {
			t.Errorf("classOf(%d) = %d, want %d", tc.c, got, tc.class)
		}
	}
}

func TestAFRReuse(t *testing.T) {
	reset(t)
	s := GetAFRs(100)
	if len(s) != 0 || cap(s) < 100 {
		t.Fatalf("GetAFRs(100): len=%d cap=%d", len(s), cap(s))
	}
	s = append(s, packet.AFR{Seq: 7})
	PutAFRs(s)
	s2 := GetAFRs(70) // same size class

	if len(s2) != 0 {
		t.Fatalf("reused slice has len %d, want 0", len(s2))
	}
	s2 = append(s2, packet.AFR{})
	if &s2[0] != &s[0] {
		t.Fatal("second get did not reuse the put slice")
	}
}

// TestOversizedFallsThrough: requests above the largest class are plain
// allocations and their put is discarded, never pooled.
func TestOversizedFallsThrough(t *testing.T) {
	reset(t)
	before := Stats()
	s := GetAFRs(1<<17 + 1)
	if cap(s) != 1<<17+1 {
		t.Fatalf("oversized cap=%d", cap(s))
	}
	PutAFRs(s)
	after := Stats()
	if after.News-before.News != 1 || after.Drops-before.Drops != 1 {
		t.Fatalf("oversized buffer not alloc+dropped: %+v -> %+v", before, after)
	}
}

// TestDisabled: with pooling off, gets are fresh and puts discard.
func TestDisabled(t *testing.T) {
	reset(t)
	SetEnabled(false)
	s := append(GetAFRs(64), packet.AFR{})
	PutAFRs(s)
	s2 := append(GetAFRs(64), packet.AFR{})
	if &s[0] == &s2[0] {
		t.Fatal("disabled pool reused a buffer")
	}
	if Enabled() {
		t.Fatal("Enabled() = true after SetEnabled(false)")
	}
	SetEnabled(true)
	s = GetAFRs(10)
	SetEnabled(false)
	PutAFRs(s) // disabled put: dropped, not pooled
	SetEnabled(true)
	s2 = GetAFRs(10)
	s, s2 = append(s, packet.AFR{}), append(s2, packet.AFR{})
	if &s[0] == &s2[0] {
		t.Fatal("buffer put while disabled was pooled")
	}
}

// TestSteadyStateNoNewAllocations: once warm, a get/put cycle never
// misses — this is the property the allocs/op gates depend on.
func TestSteadyStateNoNewAllocations(t *testing.T) {
	reset(t)
	for i := 0; i < 8; i++ { // warm
		PutAFRs(GetAFRs(256))
	}
	before := Stats()
	for i := 0; i < 1000; i++ {
		s := GetAFRs(256)
		PutAFRs(s)
	}
	after := Stats()
	if after.News != before.News {
		t.Fatalf("steady state allocated: %d new buffers", after.News-before.News)
	}
}

// TestClassCapBounded: the free list never retains more than maxPerClass
// buffers, so a burst cannot pin unbounded memory.
func TestClassCapBounded(t *testing.T) {
	reset(t)
	bufs := make([][]packet.AFR, maxPerClass+50)
	for i := range bufs {
		bufs[i] = GetAFRs(64)
	}
	before := Stats()
	for _, b := range bufs {
		PutAFRs(b)
	}
	after := Stats()
	if got := after.Drops - before.Drops; got != 50 {
		t.Fatalf("expected 50 over-capacity drops, got %d", got)
	}
	if n := len(afrClasses[0].free); n != maxPerClass {
		t.Fatalf("class retained %d buffers, want %d", n, maxPerClass)
	}
}

// TestDebugDoublePutPanics: returning the same buffer twice is the
// corruption mode the debug checks exist for. The second owner here holds
// a different slice header onto the same backing array, as two owners
// sharing one buffer would, so the check must key on the array itself.
func TestDebugDoublePutPanics(t *testing.T) {
	reset(t)
	SetDebug(true)
	s := GetAFRs(64)
	alias := append(s, packet.AFR{})
	PutAFRs(s)
	defer func() {
		if recover() == nil {
			t.Fatal("double put did not panic under debug")
		}
	}()
	PutAFRs(alias)
}

func TestDebugAFRDoublePutPanics(t *testing.T) {
	reset(t)
	SetDebug(true)
	s := GetAFRs(64)
	PutAFRs(s)
	defer func() {
		if recover() == nil {
			t.Fatal("double AFR put did not panic under debug")
		}
	}()
	PutAFRs(s)
}

// TestDebugLeakTracking: Outstanding counts gotten-but-not-put buffers
// and drops to zero when the workload balances.
func TestDebugLeakTracking(t *testing.T) {
	reset(t)
	SetDebug(true)
	s1, s2, s3 := GetAFRs(64), GetAFRs(128), GetAFRs(64)
	if got := Outstanding(); got != 3 {
		t.Fatalf("Outstanding = %d, want 3", got)
	}
	PutAFRs(s1)
	PutAFRs(s2)
	PutAFRs(s3)
	if got := Outstanding(); got != 0 {
		t.Fatalf("Outstanding after balanced puts = %d, want 0", got)
	}
}

// TestDebugForeignPutAllowed: slices that never came from the pool (e.g.
// restored snapshot state) may be put; they enter the free list normally.
func TestDebugForeignPutAllowed(t *testing.T) {
	reset(t)
	SetDebug(true)
	foreign := make([]packet.AFR, 0, 64)
	PutAFRs(foreign) // must not panic
	s := GetAFRs(64)
	s = append(s, packet.AFR{})
	if &s[0] != &foreign[:1][0] {
		t.Fatal("foreign slice was not pooled")
	}
	PutAFRs(s)
}

// TestConcurrentHammer exercises the free lists from many goroutines;
// meaningful under -race.
func TestConcurrentHammer(t *testing.T) {
	reset(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				s := GetAFRs(32 << (i % 4))
				s = append(s, packet.AFR{Seq: uint32(g)<<16 | uint32(i)})
				PutAFRs(s)
			}
		}(g)
	}
	wg.Wait()
}
