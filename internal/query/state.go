package query

import (
	"omniwindow/internal/afr"
	"omniwindow/internal/hashing"
	"omniwindow/internal/packet"
	"omniwindow/internal/sketch"
)

// State is one memory region's data-plane execution of a query: a
// hash-indexed counter array (Sonata's reduce), an optional per-slot
// multiresolution-bitmap summary (for distinction statistics), and a Bloom
// filter realizing the distinct operator. It implements afr.StateApp.
//
// Collisions are NOT handled: two keys hashing to the same slot share the
// counter, faithfully reproducing Sonata's stateful-operator error model.
type State struct {
	q         *Query
	slots     int
	seed      uint64
	counters  []uint64
	summaries [][4]uint64
	dedup     *sketch.Bloom
}

// NewState builds a region state with `slots` counter slots. For
// distinct-style queries, dedupBits sizes the distinct operator's Bloom
// filter.
func NewState(q *Query, slots, dedupBits int, seed uint64) *State {
	if slots <= 0 {
		panic("query: state slots must be positive")
	}
	s := &State{q: q, slots: slots, seed: seed, counters: make([]uint64, slots)}
	if q.Distinct != nil {
		if dedupBits <= 0 {
			dedupBits = slots * 8
		}
		s.dedup = sketch.NewBloom(dedupBits, 3, seed^0xD15C)
		s.summaries = make([][4]uint64, slots)
	}
	return s
}

// slot returns the hash index of a key.
func (s *State) slot(k packet.FlowKey) int {
	return hashing.Index(k, s.seed, s.slots)
}

// Update implements afr.StateApp.
func (s *State) Update(p *packet.Packet) {
	if !s.q.Observes(p) {
		return
	}
	k := s.q.Key(p)
	idx := s.slot(k)
	if s.q.Distinct == nil {
		s.counters[idx]++
		return
	}
	elem := s.q.Distinct(p)
	pair := hashing.Pair64(k, elem, s.seed^0xE1E)
	// Distinct operator: only the first sighting of (key, element)
	// within the sub-window advances the reduce stage.
	if s.dedupTestAndAdd(pair) {
		return
	}
	s.counters[idx]++
	mrbInsert(&s.summaries[idx], pair)
}

// dedupTestAndAdd probes the Bloom filter with a precomputed pair hash.
func (s *State) dedupTestAndAdd(pair uint64) bool {
	// Reuse the filter's key-based API by folding the pair hash into a
	// synthetic key: cheap and preserves the filter's independence.
	k := packet.FlowKey{
		SrcIP:   uint32(pair >> 32),
		DstIP:   uint32(pair),
		SrcPort: uint16(pair >> 48),
		DstPort: uint16(pair >> 16),
		Proto:   uint8(pair >> 8),
	}
	return s.dedup.TestAndAdd(k)
}

// mrbInsert adds one element hash to a 4-component inline multiresolution
// bitmap — the AFR distinct summary (see sketch.MRB for the estimator).
func mrbInsert(sum *[4]uint64, h uint64) {
	l := 0
	for l < 3 && h&(1<<uint(l)) != 0 {
		l++
	}
	pos := (h >> 32) % 64
	sum[l] |= 1 << pos
}

// Query implements afr.StateApp.
func (s *State) Query(k packet.FlowKey) afr.Attr {
	idx := s.slot(k)
	a := afr.Attr{Value: s.counters[idx]}
	if s.summaries != nil {
		a.Summary = s.summaries[idx]
	}
	return a
}

// ResetSlot implements afr.StateApp: one clear-packet pass zeroes slot i
// of the counter register and the summary registers; the distinct
// operator's Bloom words clear alongside slot 0 (hardware clears the wider
// filter with the same recirculating packets).
func (s *State) ResetSlot(i int) {
	s.counters[i] = 0
	if s.summaries != nil {
		s.summaries[i] = [4]uint64{}
	}
	if i == 0 && s.dedup != nil {
		s.dedup.Reset()
	}
}

// Slots implements afr.StateApp.
func (s *State) Slots() int { return s.slots }

// MemoryBytes reports the region's data-plane footprint.
func (s *State) MemoryBytes() int {
	b := s.slots * 8
	if s.summaries != nil {
		b += s.slots * 32
	}
	if s.dedup != nil {
		b += s.dedup.MemoryBytes()
	}
	return b
}

// Exact is the error-free reference executor used for ITW/ISW ground
// truth: exact per-key dictionaries, exact distinct sets.
type Exact struct {
	q      *Query
	counts map[packet.FlowKey]uint64
	seen   map[packet.FlowKey]map[uint64]bool
}

// NewExact builds an exact executor for q.
func NewExact(q *Query) *Exact {
	return &Exact{
		q:      q,
		counts: make(map[packet.FlowKey]uint64),
		seen:   make(map[packet.FlowKey]map[uint64]bool),
	}
}

// Update processes one packet.
func (e *Exact) Update(p *packet.Packet) {
	if !e.q.Observes(p) {
		return
	}
	k := e.q.Key(p)
	if e.q.Distinct == nil {
		e.counts[k]++
		return
	}
	elem := e.q.Distinct(p)
	set, ok := e.seen[k]
	if !ok {
		set = make(map[uint64]bool)
		e.seen[k] = set
	}
	if !set[elem] {
		set[elem] = true
		e.counts[k]++
	}
}

// Counts returns the exact per-key statistic.
func (e *Exact) Counts() map[packet.FlowKey]uint64 { return e.counts }

// DistinctSets returns the exact per-key element sets (distinct queries
// only), used to merge exact sub-windows without double counting.
func (e *Exact) DistinctSets() map[packet.FlowKey]map[uint64]bool { return e.seen }

// Detect returns the keys whose statistic reaches the query threshold.
func (e *Exact) Detect() map[packet.FlowKey]bool {
	out := make(map[packet.FlowKey]bool)
	for k, v := range e.counts {
		if v >= e.q.Threshold {
			out[k] = true
		}
	}
	return out
}

// Reset clears the executor.
func (e *Exact) Reset() {
	e.counts = make(map[packet.FlowKey]uint64)
	e.seen = make(map[packet.FlowKey]map[uint64]bool)
}
