package sketch

import (
	"omniwindow/internal/hashing"
	"omniwindow/internal/packet"
)

// Bloom is a standard Bloom filter over flow keys. OmniWindow's flowkey
// tracking (Algorithm 1) uses it to suppress duplicate keys before
// appending to the data-plane flowkey array or spilling to the controller.
type Bloom struct {
	bits []uint64
	m    uint64
	// mask is m-1 when m is a power of two (the default 1<<20 is), so bit
	// positions reduce with an AND — the same value as h % m — instead of a
	// 64-bit division per hash; 0 otherwise.
	mask uint64
	fam  *hashing.Family
}

// NewBloom builds a Bloom filter with m bits (rounded up to a multiple of
// 64) and k hash functions.
func NewBloom(m, k int, seed uint64) *Bloom {
	if m <= 0 || k <= 0 {
		panic("sketch: Bloom parameters must be positive")
	}
	words := (m + 63) / 64
	b := &Bloom{bits: make([]uint64, words), m: uint64(words) * 64, fam: hashing.NewFamily(k, seed)}
	if b.m&(b.m-1) == 0 {
		b.mask = b.m - 1
	}
	return b
}

// pos reduces a hash to a bit position in [0, m).
func (b *Bloom) pos(h uint64) uint64 {
	if b.mask != 0 {
		return h & b.mask
	}
	return h % b.m
}

// Contains reports whether k may have been added (no false negatives).
func (b *Bloom) Contains(k packet.FlowKey) bool {
	l := hashing.LanesOf(k)
	for i := 0; i < b.fam.Size(); i++ {
		h := b.pos(l.Hash(b.fam.Seed(i)))
		if b.bits[h/64]&(1<<(h%64)) == 0 {
			return false
		}
	}
	return true
}

// Add inserts k.
func (b *Bloom) Add(k packet.FlowKey) {
	l := hashing.LanesOf(k)
	for i := 0; i < b.fam.Size(); i++ {
		h := b.pos(l.Hash(b.fam.Seed(i)))
		b.bits[h/64] |= 1 << (h % 64)
	}
}

// TestAndAdd inserts k and reports whether it was (probably) present
// before — the single-pass check-then-update of Algorithm 1 lines 2-3.
func (b *Bloom) TestAndAdd(k packet.FlowKey) bool {
	present := true
	l := hashing.LanesOf(k)
	for i := 0; i < b.fam.Size(); i++ {
		h := b.pos(l.Hash(b.fam.Seed(i)))
		if b.bits[h/64]&(1<<(h%64)) == 0 {
			present = false
			b.bits[h/64] |= 1 << (h % 64)
		}
	}
	return present
}

// Reset clears the filter.
func (b *Bloom) Reset() { clear(b.bits) }

// MemoryBytes reports the bitmap footprint.
func (b *Bloom) MemoryBytes() int { return int(b.m / 8) }

// Hashes returns the number of hash functions (one SALU-visible access
// per hash in the data plane).
func (b *Bloom) Hashes() int { return b.fam.Size() }
