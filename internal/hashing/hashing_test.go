package hashing

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"omniwindow/internal/packet"
)

func randKey(rng *rand.Rand) packet.FlowKey {
	return packet.FlowKey{
		SrcIP:   rng.Uint32(),
		DstIP:   rng.Uint32(),
		SrcPort: uint16(rng.Uint32()),
		DstPort: uint16(rng.Uint32()),
		Proto:   uint8(rng.Uint32()),
	}
}

// refKey64 is the byte-serialising Key64 this package shipped before the
// lane rewrite, kept here as the oracle: every sketch cell, Bloom bit and
// window digest is a function of these outputs, so the production hash must
// never drift from it.
func refKey64(k packet.FlowKey, seed uint64) uint64 {
	b := k.Bytes()
	lane0 := binary.LittleEndian.Uint64(b[0:8])
	lane1 := uint64(binary.LittleEndian.Uint32(b[8:12]))
	lane2 := uint64(b[12])

	h := seed + prime5 + packet.KeyBytes
	h ^= rotl(lane0*prime2, 31) * prime1
	h = rotl(h, 27)*prime1 + prime4
	h ^= lane1 * prime1
	h = rotl(h, 23)*prime2 + prime3
	h ^= lane2 * prime5
	h = rotl(h, 11) * prime1
	return Mix64(h)
}

func refIndex(k packet.FlowKey, seed uint64, buckets int) int {
	return int(uint64(uint32(refKey64(k, seed))) * uint64(buckets) >> 32)
}

func refPair64(k packet.FlowKey, v, seed uint64) uint64 {
	return Mix64(refKey64(k, seed) ^ rotl(v*prime2, 31)*prime1)
}

// checkIdentity holds every exported key hash against the reference for one
// (key, seed, value) triple.
func checkIdentity(t *testing.T, fam *Family, k packet.FlowKey, seed, v uint64) {
	t.Helper()
	want := refKey64(k, seed)
	if got := Key64(k, seed); got != want {
		t.Fatalf("Key64(%+v, %#x) = %#x, reference %#x", k, seed, got, want)
	}
	if got := LanesOf(k).Hash(seed); got != want {
		t.Fatalf("LanesOf(%+v).Hash(%#x) = %#x, reference %#x", k, seed, got, want)
	}
	if got := Key32(k, seed); got != uint32(want) {
		t.Fatalf("Key32(%+v, %#x) = %#x, reference %#x", k, seed, got, uint32(want))
	}
	buckets := int(v%(1<<22)) + 1
	if got, want := Index(k, seed, buckets), refIndex(k, seed, buckets); got != want {
		t.Fatalf("Index(%+v, %#x, %d) = %d, reference %d", k, seed, buckets, got, want)
	}
	if got, want := LanesOf(k).Index(seed, buckets), refIndex(k, seed, buckets); got != want {
		t.Fatalf("Lanes.Index(%+v, %#x, %d) = %d, reference %d", k, seed, buckets, got, want)
	}
	if got, want := Pair64(k, v, seed), refPair64(k, v, seed); got != want {
		t.Fatalf("Pair64(%+v, %#x, %#x) = %#x, reference %#x", k, v, seed, got, want)
	}
	i := int(v % uint64(fam.Size()))
	if got, want := fam.Hash64(i, k), refKey64(k, fam.Seed(i)); got != want {
		t.Fatalf("Family.Hash64(%d, %+v) = %#x, reference %#x", i, k, got, want)
	}
	if got, want := fam.Index(i, k, buckets), refIndex(k, fam.Seed(i), buckets); got != want {
		t.Fatalf("Family.Index(%d, %+v, %d) = %d, reference %d", i, k, buckets, got, want)
	}
}

// TestKey64Identity: the lane-built hash equals the byte-serialising
// reference on a million random (key, seed) pairs.
func TestKey64Identity(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	fam := NewFamily(7, 0xB100F)
	for i := 0; i < 1<<20; i++ {
		checkIdentity(t, fam, randKey(rng), rng.Uint64(), rng.Uint64())
	}
}

// FuzzKey64Identity lets the fuzzer hunt for a (key, seed) the lane rewrite
// hashes differently from the reference.
func FuzzKey64Identity(f *testing.F) {
	f.Add(uint32(0), uint32(0), uint16(0), uint16(0), uint8(0), uint64(0), uint64(0))
	f.Add(uint32(0x0A0B0C0D), uint32(0x01020304), uint16(5555), uint16(443), uint8(6), uint64(0xB100F), uint64(1<<20))
	f.Add(^uint32(0), ^uint32(0), ^uint16(0), ^uint16(0), ^uint8(0), ^uint64(0), ^uint64(0))
	fam := NewFamily(7, 0xB100F)
	f.Fuzz(func(t *testing.T, src, dst uint32, sp, dp uint16, proto uint8, seed, v uint64) {
		k := packet.FlowKey{SrcIP: src, DstIP: dst, SrcPort: sp, DstPort: dp, Proto: proto}
		checkIdentity(t, fam, k, seed, v)
	})
}

// TestKey64Golden pins literal outputs (taken from the byte-serialising
// implementation) so that an edit which changes the reference and the
// production hash together still cannot drift silently.
func TestKey64Golden(t *testing.T) {
	fam := NewFamily(4, 99)
	for _, g := range []struct {
		k            packet.FlowKey
		seed0, bloom uint64
		index        int
		pair         uint64
		famIndex     int
	}{
		{packet.FlowKey{}, 0xa0537b08c36938b4, 0x13c174e6875b78b8, 553568, 0x17a114822a71a81c, 769},
		{packet.FlowKey{SrcIP: 0x0A0B0C0D, DstIP: 0x01020304, SrcPort: 5555, DstPort: 443, Proto: 6},
			0xa43c0d7fd52a238b, 0xa981145f79ba29a3, 397681, 0x54a537a2026c0343, 317},
		{packet.FlowKey{SrcIP: 0xFFFFFFFF, DstIP: 0xFEDCBA98, SrcPort: 0xFFFF, DstPort: 0x8001, Proto: 0xFF},
			0xed8780de6b3a3c98, 0x8723b1256798bd07, 845032, 0xe1078522cbc0bad0, 485},
	} {
		if got := Key64(g.k, 0); got != g.seed0 {
			t.Errorf("Key64(%+v, 0) = %#x, golden %#x", g.k, got, g.seed0)
		}
		if got := Key64(g.k, 0xB100F); got != g.bloom {
			t.Errorf("Key64(%+v, 0xB100F) = %#x, golden %#x", g.k, got, g.bloom)
		}
		if got := Index(g.k, 7, 1<<20); got != g.index {
			t.Errorf("Index(%+v, 7, 1<<20) = %d, golden %d", g.k, got, g.index)
		}
		if got := Pair64(g.k, 0xDEADBEEF, 3); got != g.pair {
			t.Errorf("Pair64(%+v, 0xDEADBEEF, 3) = %#x, golden %#x", g.k, got, g.pair)
		}
		if got := fam.Index(3, g.k, 1000); got != g.famIndex {
			t.Errorf("NewFamily(4, 99).Index(3, %+v, 1000) = %d, golden %d", g.k, got, g.famIndex)
		}
	}
}

func TestKey64Deterministic(t *testing.T) {
	k := packet.FlowKey{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: 6}
	if Key64(k, 42) != Key64(k, 42) {
		t.Fatal("hash not deterministic")
	}
}

func TestKey64SeedSensitivity(t *testing.T) {
	k := packet.FlowKey{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: 6}
	if Key64(k, 1) == Key64(k, 2) {
		t.Fatal("different seeds produced identical hashes")
	}
}

func TestKey64InputSensitivity(t *testing.T) {
	base := packet.FlowKey{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: 6}
	variants := []packet.FlowKey{
		{SrcIP: 2, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: 6},
		{SrcIP: 1, DstIP: 3, SrcPort: 3, DstPort: 4, Proto: 6},
		{SrcIP: 1, DstIP: 2, SrcPort: 4, DstPort: 4, Proto: 6},
		{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 5, Proto: 6},
		{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: 17},
	}
	h := Key64(base, 7)
	for _, v := range variants {
		if Key64(v, 7) == h {
			t.Fatalf("single-field change did not alter hash: %v", v)
		}
	}
}

func TestIndexInRange(t *testing.T) {
	f := func(src, dst uint32, sp, dp uint16, proto uint8, seed uint64) bool {
		k := packet.FlowKey{SrcIP: src, DstIP: dst, SrcPort: sp, DstPort: dp, Proto: proto}
		for _, n := range []int{1, 2, 7, 64, 4096, 1 << 20} {
			i := Index(k, seed, n)
			if i < 0 || i >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestIndexUniformity checks that bucket occupancy over random keys is
// within a loose chi-square-ish bound of uniform.
func TestIndexUniformity(t *testing.T) {
	const buckets, samples = 64, 64 * 2000
	rng := rand.New(rand.NewSource(9))
	counts := make([]int, buckets)
	for i := 0; i < samples; i++ {
		counts[Index(randKey(rng), 1234, buckets)]++
	}
	mean := float64(samples) / buckets
	for b, c := range counts {
		if math.Abs(float64(c)-mean) > 6*math.Sqrt(mean) {
			t.Fatalf("bucket %d count %d deviates too far from mean %.1f", b, c, mean)
		}
	}
}

// TestFamilyIndependence verifies that two family members disagree on most
// keys (a sanity proxy for pairwise independence needed by sketch rows).
func TestFamilyIndependence(t *testing.T) {
	fam := NewFamily(4, 99)
	rng := rand.New(rand.NewSource(11))
	same := 0
	const n = 10000
	for i := 0; i < n; i++ {
		k := randKey(rng)
		if fam.Index(0, k, 1024) == fam.Index(1, k, 1024) {
			same++
		}
	}
	// Expected collision rate 1/1024; allow generous slack.
	if same > n/100 {
		t.Fatalf("family members agree too often: %d/%d", same, n)
	}
}

func TestFamilySizeAndSeeds(t *testing.T) {
	fam := NewFamily(5, 7)
	if fam.Size() != 5 {
		t.Fatalf("Size() = %d want 5", fam.Size())
	}
	seen := map[uint64]bool{}
	for i := 0; i < 5; i++ {
		s := fam.Seed(i)
		if seen[s] {
			t.Fatalf("duplicate seed at %d", i)
		}
		seen[s] = true
	}
}

func TestBytes64LengthSensitivity(t *testing.T) {
	a := Bytes64([]byte("abcdefgh"), 5)
	b := Bytes64([]byte("abcdefg"), 5)
	c := Bytes64([]byte("abcdefghi"), 5)
	if a == b || a == c || b == c {
		t.Fatal("length changes did not alter hash")
	}
	if Bytes64(nil, 5) != Bytes64([]byte{}, 5) {
		t.Fatal("nil and empty should hash equal")
	}
}

func TestPair64DistinguishesValues(t *testing.T) {
	k := packet.FlowKey{SrcIP: 1}
	if Pair64(k, 1, 3) == Pair64(k, 2, 3) {
		t.Fatal("pair hash ignored value")
	}
}

// placeShapes are the key populations placement must spread, 64 K keys
// each: random keys, one client network counting up SrcIP against one
// server, and one src/dst pair sweeping every DstPort (a port scan).
var placeShapes = []struct {
	name string
	key  func(rng *rand.Rand, i int) packet.FlowKey
}{
	{"random", func(rng *rand.Rand, _ int) packet.FlowKey { return randKey(rng) }},
	{"sequential-src", func(_ *rand.Rand, i int) packet.FlowKey {
		return packet.FlowKey{SrcIP: 0x0A000000 + uint32(i), DstIP: 0xC0A80001, SrcPort: 40000, DstPort: 443, Proto: packet.ProtoTCP}
	}},
	{"port-scan", func(_ *rand.Rand, i int) packet.FlowKey {
		return packet.FlowKey{SrcIP: 0x0A000001, DstIP: 0xC0A80001, SrcPort: 40000, DstPort: uint16(i), Proto: packet.ProtoTCP}
	}},
}

// TestPlace64Spread: for every shape and 2-8 shards, each shard gets
// within 10 % of its fair share, and within each shard the low half (the
// table index's tag) spreads evenly both in its lowest bits, which pick a
// small index's home slot, and in its top bits, which a large index's
// home slot reaches. The second check fails if the shard and the tag
// were drawn from the same bits.
func TestPlace64Spread(t *testing.T) {
	const keys, slots = 1 << 16, 16
	for _, shape := range placeShapes {
		for n := 2; n <= 8; n++ {
			rng := rand.New(rand.NewSource(int64(n)))
			perShard := make([]int, n)
			low := make([][slots]int, n)
			high := make([][slots]int, n)
			for i := 0; i < keys; i++ {
				k := shape.key(rng, i)
				s, tag := Shard(k, n), uint32(Place64(k))
				perShard[s]++
				low[s][tag%slots]++
				high[s][tag>>28]++
			}
			fair := float64(keys) / float64(n)
			for s, c := range perShard {
				if math.Abs(float64(c)-fair) > 0.10*fair {
					t.Fatalf("%s, %d shards: shard %d holds %d keys, fair share %.0f", shape.name, n, s, c, fair)
				}
				mean := float64(c) / slots
				for b := 0; b < slots; b++ {
					if math.Abs(float64(low[s][b])-mean) > 0.25*mean || math.Abs(float64(high[s][b])-mean) > 0.25*mean {
						t.Fatalf("%s, %d shards: shard %d home slots uneven: low bits %v, top bits %v (mean %.0f)",
							shape.name, n, s, low[s], high[s], mean)
					}
				}
			}
		}
	}
}

// TestPlace64SingleFieldChangesHash: keys that differ in exactly one field
// never share a placement hash. Each term of the fold is a bijection of
// its fields and Mix64 is one too, so this holds for every key; the test
// sweeps every value of the ports and protocol on random bases and random
// values of the addresses.
func TestPlace64SingleFieldChangesHash(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	set := []func(k *packet.FlowKey, v uint32){
		func(k *packet.FlowKey, v uint32) { k.SrcIP = v },
		func(k *packet.FlowKey, v uint32) { k.DstIP = v },
		func(k *packet.FlowKey, v uint32) { k.SrcPort = uint16(v) },
		func(k *packet.FlowKey, v uint32) { k.DstPort = uint16(v) },
		func(k *packet.FlowKey, v uint32) { k.Proto = uint8(v) },
	}
	values := []uint32{1 << 16, 1 << 16, 1 << 16, 1 << 16, 1 << 8}
	seen := make(map[uint64]packet.FlowKey, 1<<16)
	for base := 0; base < 4; base++ {
		b := randKey(rng)
		for f, setField := range set {
			clear(seen)
			for i := uint32(0); i < values[f]; i++ {
				k, v := b, i
				if f < 2 {
					v = rng.Uint32() // the addresses: a sample, not a sweep
				}
				setField(&k, v)
				h := Place64(k)
				if prev, ok := seen[h]; ok && prev != k {
					t.Fatalf("field %d: %+v and %+v share Place64 %#x", f, prev, k, h)
				}
				seen[h] = k
			}
		}
	}
}

// TestShardZeroAlloc pins per-record shard routing at zero allocations —
// it runs once per ingested AFR on the controller's pooled hot path.
func TestShardZeroAlloc(t *testing.T) {
	k := packet.FlowKey{SrcIP: 0x0A0B0C0D, DstIP: 0x01020304, SrcPort: 5555, DstPort: 443, Proto: 6}
	var sink int
	if allocs := testing.AllocsPerRun(1000, func() { sink += Shard(k, 8) }); allocs != 0 {
		t.Fatalf("Shard allocated %v per call, want 0 (sink %d)", allocs, sink)
	}
}

func TestShardRangeAndBalance(t *testing.T) {
	for _, n := range []int{1, 2, 4, 7, 8, 16} {
		counts := make([]int, n)
		for i := 0; i < 4096; i++ {
			k := packet.FlowKey{SrcIP: uint32(Mix64(uint64(i))), DstIP: uint32(i), DstPort: 443, Proto: 6}
			s := Shard(k, n)
			if s < 0 || s >= n {
				t.Fatalf("Shard(%d shards) = %d out of range", n, s)
			}
			counts[s]++
			if Shard(k, n) != s {
				t.Fatal("Shard not deterministic")
			}
		}
		// Every shard must receive a reasonable slice of a uniform key
		// population: no shard under 1/4 of the fair share.
		for s, c := range counts {
			if c < 4096/n/4 {
				t.Fatalf("shard %d/%d starved: %d of 4096 keys", s, n, c)
			}
		}
	}
}

// placeSink keeps BenchmarkPlace64's loop alive: Place64 inlines, and a
// result nothing reads is dead code.
var placeSink uint64

func BenchmarkPlace64(b *testing.B) {
	k := packet.FlowKey{SrcIP: 0x0A0B0C0D, DstIP: 0x01020304, SrcPort: 5555, DstPort: 443, Proto: 6}
	var sink uint64
	for i := 0; i < b.N; i++ {
		k.SrcIP = uint32(i)
		sink += Place64(k)
	}
	placeSink = sink
}

func BenchmarkKey64(b *testing.B) {
	k := packet.FlowKey{SrcIP: 0x0A0B0C0D, DstIP: 0x01020304, SrcPort: 5555, DstPort: 443, Proto: 6}
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += Key64(k, uint64(i))
	}
	_ = sink
}
