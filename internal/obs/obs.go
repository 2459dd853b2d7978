// Package obs is the runtime observability layer: atomic counters and
// gauges, fixed-bucket latency histograms with quantile estimation, a
// structured window-lifecycle trace ring, and an HTTP endpoint exposing
// all of it (Prometheus text format, JSON trace dumps, pprof). It watches
// the telemetry pipeline itself — where collect-and-reset time goes, how
// deep the ingest queue runs, what the recovery path is doing — as
// opposed to internal/metrics, which scores the pipeline's *output*
// against ground truth (precision/recall/ARE, the paper's evaluation).
//
// The package is dependency-free (stdlib only) and built around two
// contracts the hot paths rely on:
//
//   - Nil safety: every method on a nil *Counter, *Gauge, *Histogram,
//     *Ring or *Registry is a no-op (or zero read). Instrumented code
//     holds handles unconditionally and never branches on "is
//     observability on"; a deployment without Config.DebugAddr carries
//     nil handles everywhere.
//   - Zero allocation: neither the disabled (nil) nor the enabled path
//     allocates on Observe/Add/Record. The disabled path is a nil check
//     and nothing else, proven by testing.AllocsPerRun and the CI
//     benchmark-regression gate.
package obs

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use; a nil *Counter ignores writes and reads zero.
type Counter struct {
	v    atomic.Int64
	name string
	help string
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (negative deltas are ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Value reads the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value. The zero value is ready to use;
// a nil *Gauge ignores writes and reads zero.
type Gauge struct {
	v    atomic.Int64
	name string
	help string
}

// Set stores the current value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add adjusts the current value by n (either sign).
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Value reads the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// funcMetric is a scrape-time metric: its value is computed by a callback
// when the registry is exposed, so hot paths that already maintain their
// own atomics (the UDP collector's accounting) are exported without
// double-counting a single write.
type funcMetric struct {
	name    string
	help    string
	typ     string // "counter" or "gauge"
	collect func() int64
}

// Registry holds a deployment's metrics and its lifecycle trace ring, and
// renders them in Prometheus text format. A nil *Registry hands out nil
// handles, so a single code path serves both instrumented and
// uninstrumented deployments.
type Registry struct {
	mu       sync.Mutex
	counters []*Counter
	gauges   []*Gauge
	hists    []*Histogram
	funcs    []funcMetric
	byName   map[string]interface{}
	ring     *Ring
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]interface{})}
}

// Counter registers (or fetches, when the exact name is already
// registered) a counter. The name may carry a Prometheus label set, e.g.
// `omniwindow_collector_received_total{port="2"}`; metrics sharing the
// family (the part before '{') are grouped under one HELP/TYPE header.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byName[name]; ok {
		if c, ok := m.(*Counter); ok {
			return c
		}
		return nil
	}
	c := &Counter{name: name, help: help}
	r.counters = append(r.counters, c)
	r.byName[name] = c
	return c
}

// Gauge registers (or fetches) a gauge; naming as in Counter.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byName[name]; ok {
		if g, ok := m.(*Gauge); ok {
			return g
		}
		return nil
	}
	g := &Gauge{name: name, help: help}
	r.gauges = append(r.gauges, g)
	r.byName[name] = g
	return g
}

// Histogram registers (or fetches) a histogram over the given bucket
// upper bounds in seconds (nil means DurationBuckets); naming as in
// Counter.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byName[name]; ok {
		if h, ok := m.(*Histogram); ok {
			return h
		}
		return nil
	}
	h := newHistogram(name, help, bounds)
	r.hists = append(r.hists, h)
	r.byName[name] = h
	return h
}

// CounterFunc registers a scrape-time counter whose value comes from
// collect. Duplicate names are ignored (first registration wins).
func (r *Registry) CounterFunc(name, help string, collect func() int64) {
	r.addFunc(name, help, "counter", collect)
}

// GaugeFunc registers a scrape-time gauge whose value comes from collect.
func (r *Registry) GaugeFunc(name, help string, collect func() int64) {
	r.addFunc(name, help, "gauge", collect)
}

func (r *Registry) addFunc(name, help, typ string, collect func() int64) {
	if r == nil || collect == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.byName[name]; ok {
		return
	}
	r.funcs = append(r.funcs, funcMetric{name: name, help: help, typ: typ, collect: collect})
	r.byName[name] = collect
}

// Ring returns the registry's window-lifecycle trace ring, creating it
// with the given capacity on first use (capacity <= 0 means 4096; later
// calls reuse the existing ring regardless of capacity).
func (r *Registry) Ring(capacity int) *Ring {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.ring == nil {
		if capacity <= 0 {
			capacity = 4096
		}
		r.ring = NewRing(capacity)
	}
	return r.ring
}

// family splits a metric name into its family (HELP/TYPE grouping unit)
// and the label set embedded in the name, if any.
func family(name string) (fam, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i], strings.TrimSuffix(name[i+1:], "}")
	}
	return name, ""
}

// sortedByFamily orders names so metrics of one family are contiguous and
// the families themselves are alphabetical — the layout the Prometheus
// text format requires (one HELP/TYPE header per family).
func sortedByFamily(names []string) {
	sort.Slice(names, func(i, j int) bool {
		fi, _ := family(names[i])
		fj, _ := family(names[j])
		if fi != fj {
			return fi < fj
		}
		return names[i] < names[j]
	})
}
