package sketch

import "omniwindow/internal/packet"

// Sliding implements the basic Sliding Sketch design (Gou et al., KDD'20)
// as the paper's Exp#2/Exp#10 baseline: every bucket of an underlying
// sketch is extended into two buckets — one holding the latest tumbling
// window, the other the previous one — realized here as two half-width
// instances. Queries combine both buckets, so an answer "actually contains
// information of more than one sliding window": the systematic
// overestimation that costs Sliding Sketch precision in the paper.
type Sliding struct {
	cur, prev Sketch
}

// NewSliding wraps two same-shape sketch instances. Callers build each
// with half the width of the plain sketch so total memory matches (the
// paper: "the same depth but half width ... to ensure the same memory
// resource occupation").
func NewSliding(cur, prev Sketch) *Sliding {
	return &Sliding{cur: cur, prev: prev}
}

// Update implements Sketch: only the current bucket absorbs traffic.
func (s *Sliding) Update(k packet.FlowKey, v uint64) { s.cur.Update(k, v) }

// Query implements Sketch: the sum of both buckets — the design's
// deliberate approximation of the last full window.
func (s *Sliding) Query(k packet.FlowKey) uint64 {
	return s.cur.Query(k) + s.prev.Query(k)
}

// Advance rotates the buckets at a tumbling-window boundary: the current
// bucket becomes the previous one and the (recycled) previous instance is
// cleared to receive new traffic.
func (s *Sliding) Advance() {
	s.cur, s.prev = s.prev, s.cur
	s.cur.Reset()
}

// Reset implements Sketch.
func (s *Sliding) Reset() {
	s.cur.Reset()
	s.prev.Reset()
}

// MemoryBytes implements Sketch.
func (s *Sliding) MemoryBytes() int { return s.cur.MemoryBytes() + s.prev.MemoryBytes() }
