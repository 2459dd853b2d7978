package afr

import (
	"omniwindow/internal/packet"
	"omniwindow/internal/sketch"
)

// Kind classifies a flow statistic by its merge pattern. Recent work
// (FlyMon, cited in §4.2) observes that flow statistics follow four
// patterns; OmniWindow merges each with a dedicated strategy.
type Kind int

const (
	// Frequency statistics (packet counts, byte counts) sum across
	// sub-windows.
	Frequency Kind = iota
	// Existence statistics record whether a key appeared; merging is a
	// logical OR.
	Existence
	// Max takes the maximum across sub-windows.
	Max
	// Min takes the minimum across sub-windows.
	Min
	// Distinction counts distinct values per key: the per-sub-window
	// summaries are merged first and counted after, to avoid
	// double-counting values seen in several sub-windows.
	Distinction
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Frequency:
		return "frequency"
	case Existence:
		return "existence"
	case Max:
		return "max"
	case Min:
		return "min"
	case Distinction:
		return "distinction"
	default:
		return "unknown"
	}
}

// DistinctCounter turns an OR-merged distinct summary into a count. The
// default interprets the four words as a multiresolution bitmap; telemetry
// apps whose data plane emits a different summary shape (e.g. the Vector
// Bloom Filter's plain bitmap) supply their own.
type DistinctCounter func(summary [4]uint64) uint64

// Merged is the cross-sub-window accumulation of one flow's statistic.
type Merged struct {
	kind    Kind
	counter DistinctCounter
	// value holds the running scalar for Frequency/Max/Min; for
	// Existence it is 1 when present.
	value uint64
	// distinct accumulates the OR-merged summary for Distinction; zero
	// until a sub-window contributed one.
	distinct packet.Summary
	seeded   bool
}

// NewMerged starts an accumulator of the given kind.
func NewMerged(kind Kind) Merged { return Merged{kind: kind} }

// NewMergedWithCounter starts a Distinction accumulator with a custom
// summary counter.
func NewMergedWithCounter(kind Kind, counter DistinctCounter) Merged {
	return Merged{kind: kind, counter: counter}
}

// Absorb folds one sub-window's attribute and summary (zero: none) into
// the accumulator.
func (m *Merged) Absorb(attr uint64, summary packet.Summary) {
	switch m.kind {
	case Frequency:
		m.value += attr
	case Existence:
		m.value = 1
	case Max:
		if !m.seeded || attr > m.value {
			m.value = attr
		}
	case Min:
		if !m.seeded || attr < m.value {
			m.value = attr
		}
	case Distinction:
		// Keep both the scalar sum (exact when sub-window element sets
		// are disjoint, an overcount when elements recur) and the
		// OR-merged summary (duplicate-free but noisy); Value combines
		// them.
		m.value += attr
		for i := range m.distinct {
			m.distinct[i] |= summary[i]
		}
	}
	m.seeded = true
}

// Value returns the merged statistic. For Distinction it counts the merged
// summary via the multiresolution-bitmap estimator.
func (m *Merged) Value() uint64 {
	if m.kind == Distinction && m.distinct != (packet.Summary{}) {
		return DistinctValue(m.value, m.distinct, m.counter)
	}
	return m.value
}

// DistinctValue combines a Distinction flow's two merged halves — the
// scalar sum of its sub-window counts and the OR of its summaries — into
// the reported count; counter nil selects the multiresolution-bitmap
// estimator.
func DistinctValue(sum uint64, summary [4]uint64, counter DistinctCounter) uint64 {
	var est uint64
	if counter != nil {
		est = counter(summary)
	} else {
		est = uint64(sketch.MRBEstimate(summary[:]) + 0.5)
	}
	// The scalar sum over-counts elements that recur across sub-windows
	// but is exact otherwise; the summary estimate is duplicate-free but
	// noisy. Both err upward relative to the smaller one, so take the
	// minimum.
	if sum > 0 && sum < est {
		return sum
	}
	return est
}

// Seeded reports whether any sub-window contributed yet.
func (m *Merged) Seeded() bool { return m.seeded }

// Kind returns the accumulator's statistic kind.
func (m *Merged) Kind() Kind { return m.kind }
