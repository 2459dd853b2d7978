package simd

import (
	"math"
	"math/rand"
	"testing"
)

func randVec(rng *rand.Rand, n int) []uint64 {
	v := make([]uint64, n)
	for i := range v {
		v[i] = uint64(rng.Intn(1000))
	}
	return v
}

// refMerge is the independent oracle.
func refMerge(dst, src []uint64, op Op) {
	for i := range dst {
		switch op {
		case OpSum:
			dst[i] += src[i]
		case OpMax:
			if src[i] > dst[i] {
				dst[i] = src[i]
			}
		}
	}
}

func TestKernelsMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Cover remainder handling: lengths around the unroll width.
	for _, n := range []int{0, 1, 7, 8, 9, 15, 16, 100, 1027} {
		for _, k := range []struct {
			op     Op
			kernel func(dst, src []uint64)
		}{{OpSum, Sum}, {OpMax, Max}} {
			dst := randVec(rng, n)
			src := randVec(rng, n)
			want := append([]uint64(nil), dst...)
			refMerge(want, src, k.op)
			k.kernel(dst, src)
			for i := range dst {
				if dst[i] != want[i] {
					t.Fatalf("op %d n %d idx %d: got %d want %d", k.op, n, i, dst[i], want[i])
				}
			}
		}
	}
}

// TestSubInvertsSum: Sub is Sum's exact inverse modulo 2^64 at every
// length around the unroll width, including across wrap-around.
func TestSubInvertsSum(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for n := 0; n <= 17; n++ {
		dst, src := make([]uint64, n), make([]uint64, n)
		for i := range dst {
			dst[i], src[i] = rng.Uint64(), rng.Uint64()
		}
		if n > 0 {
			dst[0], src[0] = 3, math.MaxUint64 // 3 - MaxUint64 wraps to 4
			dst[n-1], src[n-1] = math.MaxUint64, math.MaxUint64
		}
		orig := append([]uint64(nil), dst...)
		want := make([]uint64, n)
		for i := range want {
			want[i] = dst[i] - src[i]
		}
		Sub(dst, src)
		for i := range dst {
			if dst[i] != want[i] {
				t.Fatalf("n %d idx %d: Sub = %d, want %d", n, i, dst[i], want[i])
			}
		}
		Sum(dst, src)
		for i := range dst {
			if dst[i] != orig[i] {
				t.Fatalf("n %d idx %d: Sum after Sub = %d, want the original %d", n, i, dst[i], orig[i])
			}
		}
	}
	d := []uint64{3}
	if Sub(d, []uint64{math.MaxUint64}); d[0] != 4 {
		t.Fatalf("3 - MaxUint64 = %d, want 4 (mod 2^64)", d[0])
	}
}

func TestMergeScalarMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	dst := randVec(rng, 100)
	src := randVec(rng, 100)
	want := append([]uint64(nil), dst...)
	refMerge(want, src, OpSum)
	MergeScalar(dst, src, OpSum)
	for i := range dst {
		if dst[i] != want[i] {
			t.Fatal("scalar path diverged")
		}
	}
}

func TestOr(t *testing.T) {
	dst := []uint64{0b0011, 0b1000, 0, 1, 2, 3, 4, 5, 6}
	src := []uint64{0b0101, 0b0001, 7, 0, 0, 0, 0, 0, 1}
	want := make([]uint64, len(dst))
	for i := range dst {
		want[i] = dst[i] | src[i]
	}
	Or(dst, src)
	for i := range dst {
		if dst[i] != want[i] {
			t.Fatalf("idx %d: %b", i, dst[i])
		}
	}
}

func BenchmarkMergeColumnarSum(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	dst := randVec(rng, 1<<20)
	src := randVec(rng, 1<<20)
	b.SetBytes(int64(len(dst) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Sum(dst, src)
	}
}

func BenchmarkMergeColumnarSub(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	dst := randVec(rng, 1<<20)
	src := randVec(rng, 1<<20)
	b.SetBytes(int64(len(dst) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Sub(dst, src)
	}
}

func BenchmarkMergeScalarSum(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	dst := randVec(rng, 1<<20)
	src := randVec(rng, 1<<20)
	b.SetBytes(int64(len(dst) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MergeScalar(dst, src, OpSum)
	}
}
