// Package simd provides the controller's batch AFR-aggregation kernels.
// The paper merges AFRs with AVX-512 instructions, performing one
// operation (sum, max) on many records at once. Go has no
// AVX-512 intrinsics, so this package substitutes the same *mechanism*
// with columnar struct-of-arrays kernels: attributes live in contiguous
// uint64 vectors and the kernels process eight lanes per unrolled
// iteration, giving the compiler license for bounds-check elimination and
// instruction-level parallelism. Exp#7 benchmarks these kernels against
// the per-record scalar path.
package simd

// lanes is the unroll width, mirroring an AVX-512 register's eight
// 64-bit lanes.
const lanes = 8

// Sum adds src into dst element-wise. Slices must have equal length.
func Sum(dst, src []uint64) {
	n := len(dst) &^ (lanes - 1)
	for i := 0; i < n; i += lanes {
		d := dst[i : i+lanes : i+lanes]
		s := src[i : i+lanes : i+lanes]
		d[0] += s[0]
		d[1] += s[1]
		d[2] += s[2]
		d[3] += s[3]
		d[4] += s[4]
		d[5] += s[5]
		d[6] += s[6]
		d[7] += s[7]
	}
	for i := n; i < len(dst); i++ {
		dst[i] += src[i]
	}
}

// Sub subtracts src from dst element-wise, modulo 2^64: the exact inverse
// of Sum, which is how the controller retires a sub-window's column from
// its merged sums. Slices must have equal length.
func Sub(dst, src []uint64) {
	n := len(dst) &^ (lanes - 1)
	for i := 0; i < n; i += lanes {
		d := dst[i : i+lanes : i+lanes]
		s := src[i : i+lanes : i+lanes]
		d[0] -= s[0]
		d[1] -= s[1]
		d[2] -= s[2]
		d[3] -= s[3]
		d[4] -= s[4]
		d[5] -= s[5]
		d[6] -= s[6]
		d[7] -= s[7]
	}
	for i := n; i < len(dst); i++ {
		dst[i] -= src[i]
	}
}

// Max folds src into dst taking element-wise maxima.
func Max(dst, src []uint64) {
	n := len(dst) &^ (lanes - 1)
	for i := 0; i < n; i += lanes {
		d := dst[i : i+lanes : i+lanes]
		s := src[i : i+lanes : i+lanes]
		for j := 0; j < lanes; j++ {
			if s[j] > d[j] {
				d[j] = s[j]
			}
		}
	}
	for i := n; i < len(dst); i++ {
		if src[i] > dst[i] {
			dst[i] = src[i]
		}
	}
}

// Or folds src into dst bitwise (distinction-summary merging).
func Or(dst, src []uint64) {
	n := len(dst) &^ (lanes - 1)
	for i := 0; i < n; i += lanes {
		d := dst[i : i+lanes : i+lanes]
		s := src[i : i+lanes : i+lanes]
		d[0] |= s[0]
		d[1] |= s[1]
		d[2] |= s[2]
		d[3] |= s[3]
		d[4] |= s[4]
		d[5] |= s[5]
		d[6] |= s[6]
		d[7] |= s[7]
	}
	for i := n; i < len(dst); i++ {
		dst[i] |= src[i]
	}
}

// Op names a merge operation for the scalar reference path.
type Op int

// Supported scalar ops.
const (
	OpSum Op = iota
	OpMax
)

// mergeFn is one record's merge operation.
type mergeFn func(acc, v uint64) uint64

// scalarOp returns the merge function for op.
func scalarOp(op Op) mergeFn {
	switch op {
	case OpMax:
		return func(a, v uint64) uint64 {
			if v > a {
				return v
			}
			return a
		}
	default:
		return func(a, v uint64) uint64 { return a + v }
	}
}

// MergeScalar is the record-at-a-time reference path Exp#7 compares
// against: the merge operation is dispatched per record through an
// operator function, the way a general controller loop handles one AFR at
// a time. The vectorized path instead dispatches once per batch and runs
// the unrolled columnar kernel — the instruction-level-parallelism
// mechanism the paper gets from AVX-512.
func MergeScalar(dst, src []uint64, op Op) {
	f := scalarOp(op)
	for i := range dst {
		dst[i] = f(dst[i], src[i])
	}
}
