package telemetry

import (
	"omniwindow/internal/packet"
	"omniwindow/internal/sketch"
)

// Cardinality is a window-mergeable cardinality estimator (Q11): the
// per-sub-window instances merge losslessly into window estimates, the
// whole-state merge of §8 (these estimators have no per-flow AFRs).
type Cardinality interface {
	// Insert adds one element.
	Insert(k packet.FlowKey)
	// Estimate returns the estimated distinct-element count.
	Estimate() float64
	// Merge folds another instance of the same concrete type and shape.
	Merge(o Cardinality)
	// Reset clears the estimator.
	Reset()
	// Clone returns an empty estimator of the same shape (for building
	// per-sub-window instances and merge accumulators).
	Clone() Cardinality
}

// LCCard is Linear Counting as a Cardinality.
type LCCard struct {
	lc    *sketch.LinearCounting
	bits  int
	seed  uint64
	bytes int
}

// NewLCCard builds a linear-counting estimator within memoryBytes.
func NewLCCard(memoryBytes int, seed uint64) *LCCard {
	return &LCCard{
		lc:    sketch.NewLinearCountingBytes(memoryBytes, seed),
		bits:  memoryBytes * 8,
		seed:  seed,
		bytes: memoryBytes,
	}
}

// Insert implements Cardinality.
func (c *LCCard) Insert(k packet.FlowKey) { c.lc.Insert(k) }

// Estimate implements Cardinality.
func (c *LCCard) Estimate() float64 { return c.lc.Estimate() }

// Merge implements Cardinality.
func (c *LCCard) Merge(o Cardinality) { c.lc.Merge(o.(*LCCard).lc) }

// Reset implements Cardinality.
func (c *LCCard) Reset() { c.lc.Reset() }

// Clone implements Cardinality.
func (c *LCCard) Clone() Cardinality { return NewLCCard(c.bytes, c.seed) }

// HLLCard is HyperLogLog as a Cardinality.
type HLLCard struct {
	h     *sketch.HyperLogLog
	bytes int
	seed  uint64
}

// NewHLLCard builds a HyperLogLog estimator within memoryBytes (one byte
// per register, as configured in Exp#2).
func NewHLLCard(memoryBytes int, seed uint64) *HLLCard {
	return &HLLCard{h: sketch.NewHyperLogLogBytes(memoryBytes, seed), bytes: memoryBytes, seed: seed}
}

// Insert implements Cardinality.
func (c *HLLCard) Insert(k packet.FlowKey) { c.h.Insert(k) }

// Estimate implements Cardinality.
func (c *HLLCard) Estimate() float64 { return c.h.Estimate() }

// Merge implements Cardinality.
func (c *HLLCard) Merge(o Cardinality) { c.h.Merge(o.(*HLLCard).h) }

// Reset implements Cardinality.
func (c *HLLCard) Reset() { c.h.Reset() }

// Clone implements Cardinality.
func (c *HLLCard) Clone() Cardinality { return NewHLLCard(c.bytes, c.seed) }

// ExactCard counts exactly — the ideal-window reference.
type ExactCard struct {
	set map[packet.FlowKey]bool
}

// NewExactCard builds an exact counter.
func NewExactCard() *ExactCard { return &ExactCard{set: make(map[packet.FlowKey]bool)} }

// Insert implements Cardinality.
func (c *ExactCard) Insert(k packet.FlowKey) { c.set[k] = true }

// Estimate implements Cardinality.
func (c *ExactCard) Estimate() float64 { return float64(len(c.set)) }

// Merge implements Cardinality.
func (c *ExactCard) Merge(o Cardinality) {
	for k := range o.(*ExactCard).set {
		c.set[k] = true
	}
}

// Reset implements Cardinality.
func (c *ExactCard) Reset() { c.set = make(map[packet.FlowKey]bool) }

// Clone implements Cardinality.
func (c *ExactCard) Clone() Cardinality { return NewExactCard() }
