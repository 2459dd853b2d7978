package obs

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilHandlesAreSafe: every operation on nil handles (the disabled-
// instrumentation state every uninstrumented deployment runs with) must
// be a no-op, not a crash.
func TestNilHandlesAreSafe(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter read nonzero")
	}
	var g *Gauge
	g.Set(3)
	g.Add(-1)
	if g.Value() != 0 {
		t.Fatal("nil gauge read nonzero")
	}
	var h *Histogram
	h.Observe(time.Second)
	h.ObserveSeconds(0.5)
	if h.Count() != 0 || h.Sum() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil histogram read nonzero")
	}
	var ring *Ring
	ring.Record(StageAnnounced, 1, 0, 1)
	if ring.Total() != 0 || ring.Snapshot() != nil {
		t.Fatal("nil ring recorded something")
	}
	var reg *Registry
	if reg.Counter("x", "") != nil || reg.Gauge("x", "") != nil ||
		reg.Histogram("x", "", nil) != nil || reg.Ring(8) != nil {
		t.Fatal("nil registry handed out non-nil handles")
	}
	reg.CounterFunc("x", "", func() int64 { return 1 })
	if err := reg.WritePrometheus(nil); err != nil {
		t.Fatal(err)
	}
}

// TestDisabledInstrumentationZeroAlloc is the overhead contract: with
// observability disabled (nil handles), the instrumentation calls sitting
// on the hot paths must not allocate at all.
func TestDisabledInstrumentationZeroAlloc(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var ring *Ring
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(7)
		g.Set(42)
		h.Observe(123 * time.Microsecond)
		ring.Record(StageCollected, 9, 1, 64)
	})
	if allocs != 0 {
		t.Fatalf("disabled instrumentation allocated %v per run", allocs)
	}
}

// TestEnabledInstrumentationZeroAlloc: the enabled path is also
// allocation-free per operation — the observability layer must not create
// garbage-collection pressure proportional to traffic.
func TestEnabledInstrumentationZeroAlloc(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c_total", "test")
	g := reg.Gauge("g", "test")
	h := reg.Histogram("h_seconds", "test", nil)
	ring := reg.Ring(64)
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		g.Set(1)
		h.Observe(123 * time.Microsecond)
		ring.Record(StageCollected, 9, 1, 64)
	})
	if allocs != 0 {
		t.Fatalf("enabled instrumentation allocated %v per run", allocs)
	}
}

// TestCounterAndRingUnderRace hammers counters, gauges, histograms and
// the trace ring from many goroutines; run with -race this is the
// concurrency-correctness assertion, and the final counts must reconcile
// exactly.
func TestCounterAndRingUnderRace(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("hammer_total", "test")
	h := reg.Histogram("hammer_seconds", "test", nil)
	ring := reg.Ring(128)
	const goroutines, perG = 8, 1000
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for i := 0; i < goroutines; i++ {
		go func(i int) {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				c.Inc()
				h.Observe(time.Duration(i*j) * time.Microsecond)
				ring.Record(StageCollected, uint64(j), i, 1)
				if j%100 == 0 {
					_ = ring.Snapshot()
					_ = h.Quantile(0.5)
				}
			}
		}(i)
	}
	wg.Wait()
	if got := c.Value(); got != goroutines*perG {
		t.Fatalf("counter lost updates: %d != %d", got, goroutines*perG)
	}
	if got := h.Count(); got != goroutines*perG {
		t.Fatalf("histogram lost updates: %d != %d", got, goroutines*perG)
	}
	if got := ring.Total(); got != goroutines*perG {
		t.Fatalf("ring lost updates: %d != %d", got, goroutines*perG)
	}
	snap := ring.Snapshot()
	if len(snap) != 128 {
		t.Fatalf("ring retained %d events, capacity 128", len(snap))
	}
	for i := 1; i < len(snap); i++ {
		if snap[i].Seq != snap[i-1].Seq+1 {
			t.Fatalf("snapshot not in sequence order at %d: %d then %d", i, snap[i-1].Seq, snap[i].Seq)
		}
	}
}

// TestRingWrapsOldestFirst: the ring retains exactly the newest tail.
func TestRingWrapsOldestFirst(t *testing.T) {
	ring := NewRing(4)
	for i := 0; i < 10; i++ {
		ring.Record(StageAnnounced, uint64(i), -1, int64(i))
	}
	snap := ring.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("retained %d, want 4", len(snap))
	}
	for i, e := range snap {
		want := uint64(6 + i)
		if e.Seq != want || e.SubWindow != want {
			t.Fatalf("slot %d: got seq %d sub-window %d, want %d", i, e.Seq, e.SubWindow, want)
		}
		if e.At == 0 {
			t.Fatal("event missing timestamp")
		}
	}
	if ring.Total() != 10 {
		t.Fatalf("total %d, want 10", ring.Total())
	}
}

// TestHistogramQuantileAccuracy checks the interpolated estimator against
// a reference sort: for every tested quantile the estimate must land
// within the bucket that truly contains it — i.e. within one bucket ratio
// (2x) of the exact order statistic.
func TestHistogramQuantileAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	h := newHistogram("q_seconds", "test", nil)
	const n = 20000
	vals := make([]float64, n)
	for i := range vals {
		// Log-uniform over [10µs, 1s] — the C&R latency shape.
		v := math.Pow(10, -5+3*rng.Float64())
		vals[i] = v
		h.ObserveSeconds(v)
	}
	sort.Float64s(vals)
	for _, q := range []float64{0.01, 0.1, 0.25, 0.5, 0.9, 0.99, 0.999} {
		idx := int(q*float64(n)) - 1
		if idx < 0 {
			idx = 0
		}
		truth := vals[idx]
		est := h.Quantile(q).Seconds()
		if est < truth/2 || est > truth*2 {
			t.Fatalf("q=%v: estimate %v outside bucket of truth %v", q, est, truth)
		}
	}
	if h.Count() != n {
		t.Fatalf("count %d, want %d", h.Count(), n)
	}
}

// TestHistogramQuantileEdgeCases: empty histograms and the +Inf bucket.
func TestHistogramQuantileEdgeCases(t *testing.T) {
	h := newHistogram("e_seconds", "test", []float64{0.001, 0.01, 0.1})
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile nonzero")
	}
	h.ObserveSeconds(5.0) // beyond every bound: +Inf bucket
	if got := h.Quantile(0.99); got != 100*time.Millisecond {
		t.Fatalf("+Inf bucket quantile %v, want clamp to highest bound 100ms", got)
	}
	h2 := newHistogram("e2_seconds", "test", []float64{0.001, 0.01, 0.1})
	for i := 0; i < 100; i++ {
		h2.ObserveSeconds(0.005)
	}
	q := h2.Quantile(0.5).Seconds()
	if q < 0.001 || q > 0.01 {
		t.Fatalf("median %v outside owning bucket (0.001, 0.01]", q)
	}
}

// TestRegistryGetOrCreate: registering the same name twice returns the
// same handle, and a type clash yields nil rather than corrupting the
// registry.
func TestRegistryGetOrCreate(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("dup_total", "x")
	b := reg.Counter("dup_total", "x")
	if a != b {
		t.Fatal("same name returned different counters")
	}
	if reg.Gauge("dup_total", "x") != nil {
		t.Fatal("type clash did not return nil")
	}
	if reg.Ring(16) != reg.Ring(32) {
		t.Fatal("ring not shared")
	}
}

// TestLabeledFamilies: per-instance metrics registered with embedded
// label sets are one family.
func TestLabeledFamilies(t *testing.T) {
	reg := NewRegistry()
	for i := 0; i < 3; i++ {
		reg.Counter(fmt.Sprintf("fam_total{switch=%q}", fmt.Sprint(i)), "per-switch").Add(int64(i + 1))
	}
	fam, labels := family(`fam_total{switch="2"}`)
	if fam != "fam_total" || labels != `switch="2"` {
		t.Fatalf("family split: %q %q", fam, labels)
	}
}

// TestFuncMetricReRegistration: re-registering a counter func carries the
// old function's count into the family's base and adopts the new one, so
// the counter never goes backwards; re-registering a gauge func replaces
// it; a func cannot take over a name another kind holds.
func TestFuncMetricReRegistration(t *testing.T) {
	reg := NewRegistry()
	old := int64(7)
	reg.CounterFunc("restarts_total", "x", func() int64 { return old })
	reg.GaugeFunc("depth", "x", func() int64 { return 3 })
	reg.Counter("plain_total", "x").Add(2)
	reg.CounterFunc("restarts_total", "x", func() int64 { return 5 })
	reg.GaugeFunc("depth", "x", func() int64 { return 4 })
	reg.CounterFunc("plain_total", "x", func() int64 { return 100 })
	old = 1000 // the replaced function is no longer read

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"restarts_total 12\n", "depth 4\n", "plain_total 2\n"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("exposition lacks %q:\n%s", want, sb.String())
		}
	}

	// Racing re-registrations beside a scrape: each of the nine functions
	// that ever held the name counts once, replaced or current.
	reg.CounterFunc("racing_total", "x", func() int64 { return 1 })
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reg.CounterFunc("racing_total", "x", func() int64 { return 1 })
		}()
	}
	if err := reg.WritePrometheus(io.Discard); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	sb.Reset()
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "racing_total 9\n") {
		t.Errorf("racing re-registrations lost or double-counted a function:\n%s", sb.String())
	}
}
