// Package hashing provides the seeded hash family used by every sketch,
// Bloom filter and digest in the repository. Programmable-switch telemetry
// relies on cheap per-row independent hashes (Tofino exposes CRC units
// with configurable polynomials); this package reproduces that with a
// xxHash-style 64-bit mixer specialized to the 13-byte flow key. It also
// holds Place64, the one unseeded hash the controller places keys with
// (shard routing, the table index and the hot-key index).
package hashing

import (
	"encoding/binary"
	"math/bits"

	"omniwindow/internal/packet"
)

const (
	prime1 = 0x9E3779B185EBCA87
	prime2 = 0xC2B2AE3D27D4EB4F
	prime3 = 0x165667B19E3779F9
	prime4 = 0x85EBCA77C2B2AE63
	prime5 = 0x27D4EB2F165667C5
)

func rotl(x uint64, r uint) uint64 { return x<<r | x>>(64-r) }

// Mix64 is the finalization avalanche of the mixer; exported because the
// trace generator reuses it to derive reproducible pseudo-random streams.
func Mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= prime2
	h ^= h >> 29
	h *= prime3
	h ^= h >> 32
	return h
}

// Lanes is the seed-independent half of Key64: the 13-byte big-endian key
// (packet.FlowKey.Bytes) read as one little-endian 8-byte lane, one 4-byte
// lane and one byte, each already multiplied into the mixer. A structure
// that applies several seeded functions to one key (Bloom, Count-Min rows)
// computes Lanes once and runs only the seeded tail per function.
type Lanes struct{ l0, l1, l2 uint64 }

// LanesOf builds the lanes straight from the key's fields: a little-endian
// load of big-endian bytes is a byte reversal, so no byte array is needed.
func LanesOf(k packet.FlowKey) Lanes {
	lane0 := bits.ReverseBytes64(uint64(k.SrcIP)<<32 | uint64(k.DstIP))
	lane1 := uint64(bits.ReverseBytes32(uint32(k.SrcPort)<<16 | uint32(k.DstPort)))
	return Lanes{
		l0: rotl(lane0*prime2, 31) * prime1,
		l1: lane1 * prime1,
		l2: uint64(k.Proto) * prime5,
	}
}

// Hash finishes the hash for one seed; LanesOf(k).Hash(seed) == Key64(k, seed).
func (l Lanes) Hash(seed uint64) uint64 {
	h := seed + prime5 + packet.KeyBytes
	h ^= l.l0
	h = rotl(h, 27)*prime1 + prime4
	h ^= l.l1
	h = rotl(h, 23)*prime2 + prime3
	h ^= l.l2
	h = rotl(h, 11) * prime1
	return Mix64(h)
}

// Index finishes the hash for one seed and reduces it into [0, buckets).
// buckets must be > 0.
func (l Lanes) Index(seed uint64, buckets int) int {
	// Multiply-shift range reduction avoids modulo bias and is cheaper
	// than %, matching the fixed-width range tables switches use.
	return int(uint64(uint32(l.Hash(seed))) * uint64(buckets) >> 32)
}

// Key64 hashes a flow key with the given seed into 64 bits. Different seeds
// yield (empirically) independent hash functions, standing in for the
// per-row CRC polynomials of the switch hash units. Its outputs are frozen:
// every sketch cell, Bloom bit and window digest in the repository is a
// function of them (hashing_test.go pins them against the byte-serialising
// reference and golden values).
func Key64(k packet.FlowKey, seed uint64) uint64 { return LanesOf(k).Hash(seed) }

// Key32 hashes a flow key into 32 bits.
func Key32(k packet.FlowKey, seed uint64) uint32 {
	return uint32(Key64(k, seed))
}

// Index hashes a flow key into [0, buckets). buckets must be > 0.
func Index(k packet.FlowKey, seed uint64, buckets int) int {
	return LanesOf(k).Index(seed, buckets)
}

// Bytes64 hashes an arbitrary byte slice with the given seed. It is used
// for values that are not flow keys (e.g. distinct-count elements that
// combine a key with an attribute).
func Bytes64(b []byte, seed uint64) uint64 {
	h := seed + prime5 + uint64(len(b))
	for len(b) >= 8 {
		h ^= rotl(binary.LittleEndian.Uint64(b)*prime2, 31) * prime1
		h = rotl(h, 27)*prime1 + prime4
		b = b[8:]
	}
	for _, c := range b {
		h ^= uint64(c) * prime5
		h = rotl(h, 11) * prime1
	}
	return Mix64(h)
}

// Pair64 hashes an ordered (key, value) pair, used by distinction
// statistics (count of distinct values per key).
func Pair64(k packet.FlowKey, v uint64, seed uint64) uint64 {
	h := Key64(k, seed)
	h ^= rotl(v*prime2, 31) * prime1
	return Mix64(h)
}

// Place64 is the controller's placement hash: which shard owns a key, and
// where the key sits in its shard's table index and in the hot-key
// index. The paper's DPDK controller places keys with the one-cycle SSE4.2
// crc32 instruction; Place64 stands in for it at a comparable cost, one
// fold and one Mix64. The fold XORs the two IP addresses, as one word,
// with the ports and protocol packed into 40 bits and multiplied by an odd
// constant. Each term is one-to-one in its fields, and Mix64 is a
// bijection, so keys that differ in one field never share a value.
// Placement is not an output: every probe compares the full key, so a
// collision costs a probe, never a wrong row. Place64 is unseeded and
// independent of the sketch family's Key64, whose outputs stay frozen.
func Place64(k packet.FlowKey) uint64 {
	ips := uint64(k.SrcIP)<<32 | uint64(k.DstIP)
	ports := uint64(k.SrcPort)<<24 | uint64(k.DstPort)<<8 | uint64(k.Proto)
	return Mix64(ips ^ ports*prime1)
}

// Shard maps a flow key into [0, n) shards with a multiply-shift range
// reduction of Place64's high half. A table index takes its slots from
// the low half, so the slots a shard's keys use do not depend on the
// shard.
func Shard(k packet.FlowKey, n int) int {
	return int((Place64(k) >> 32) * uint64(n) >> 32)
}

// Family is a set of n independent hash functions sharing a base seed,
// one per sketch row.
type Family struct {
	seeds []uint64
}

// NewFamily derives n independent seeds from base.
func NewFamily(n int, base uint64) *Family {
	f := &Family{seeds: make([]uint64, n)}
	s := base
	for i := range f.seeds {
		s = Mix64(s + prime1)
		f.seeds[i] = s
	}
	return f
}

// Size returns the number of functions in the family.
func (f *Family) Size() int { return len(f.seeds) }

// Seed returns the i-th seed, for callers that hash non-key data.
func (f *Family) Seed(i int) uint64 { return f.seeds[i] }

// Index applies the i-th function to k over [0, buckets).
func (f *Family) Index(i int, k packet.FlowKey, buckets int) int {
	return Index(k, f.seeds[i], buckets)
}

// Hash64 applies the i-th function to k.
func (f *Family) Hash64(i int, k packet.FlowKey) uint64 {
	return Key64(k, f.seeds[i])
}
