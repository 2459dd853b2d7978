package sketch

import (
	"math"
	"math/bits"
)

// MRB is a multiresolution bitmap (Estan, Varghese, Fisk — "Bitmap
// algorithms for counting active flows"). Component k samples elements
// with probability 2^-(k+1); the last component absorbs all remaining
// levels. It estimates far larger cardinalities than a plain bitmap of the
// same size, which is why SpreadSketch stores one per bucket.
type MRB struct {
	comps []uint64 // one 64-bit bitmap per component
	c     int
}

// mrbBits is the width of each component bitmap.
const mrbBits = 64

// NewMRB builds a multiresolution bitmap with c components of 64 bits.
func NewMRB(c int) *MRB {
	if c < 2 {
		panic("sketch: MRB needs at least 2 components")
	}
	return &MRB{comps: make([]uint64, c), c: c}
}

// level returns the geometric sampling level of an element hash: the
// number of trailing one-bits capped to the last component.
func (m *MRB) level(h uint64) int {
	l := bits.TrailingZeros64(^h) // trailing ones of h
	if l >= m.c {
		l = m.c - 1
	}
	return l
}

// Insert records an element by its 64-bit hash.
func (m *MRB) Insert(h uint64) {
	l := m.level(h)
	// Use high bits for the position so they are independent of the
	// trailing bits that chose the level.
	pos := (h >> 32) % mrbBits
	m.comps[l] |= 1 << pos
}

// Estimate returns the estimated number of distinct inserted elements.
func (m *MRB) Estimate() float64 { return MRBEstimate(m.comps) }

// MRBEstimate estimates the distinct count of raw component bitmaps (the
// wire form AFRs carry, see Components), reading them in place. It picks
// the lowest component that is not saturated as the base and combines
// linear-counting estimates of the base and finer components.
func MRBEstimate(comps []uint64) float64 {
	c := len(comps)
	if c < 2 {
		panic("sketch: MRB needs at least 2 components")
	}
	base := c - 1
	for k := 0; k < c; k++ {
		if bits.OnesCount64(comps[k]) <= mrbBits*93/100 {
			base = k
			break
		}
	}
	var est, prob float64
	for k := base; k < c; k++ {
		z := float64(mrbBits - bits.OnesCount64(comps[k]))
		if z == 0 {
			z = 1
		}
		est += mrbBits * math.Log(mrbBits/z)
		// Component k samples with probability 2^-(k+1); the last
		// absorbs every remaining level, so it shares its predecessor's.
		prob += math.Pow(2, -float64(min(k+1, c-1)))
	}
	if prob == 0 {
		return 0
	}
	return est / prob
}

// Merge folds another MRB with identical shape into m (bitwise OR), which
// is lossless — the property that lets distinct-count state merge across
// sub-windows.
func (m *MRB) Merge(o *MRB) {
	if m.c != o.c {
		panic("sketch: merging incompatible MRBs")
	}
	for i := range m.comps {
		m.comps[i] |= o.comps[i]
	}
}

// Components returns a copy of the raw component bitmaps, the wire form
// AFRs carry for distinction statistics.
func (m *MRB) Components() []uint64 {
	return append([]uint64(nil), m.comps...)
}

// Reset clears the bitmap.
func (m *MRB) Reset() { clear(m.comps) }

// MemoryBytes reports the bitmap footprint.
func (m *MRB) MemoryBytes() int { return m.c * 8 }
