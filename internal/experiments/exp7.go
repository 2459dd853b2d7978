package experiments

import (
	"fmt"
	"time"

	"omniwindow/internal/simd"
)

// Exp7Row is one (operation, path) timing of Figure 12.
type Exp7Row struct {
	Op        string // "sum" or "max"
	Vectoried bool
	Flows     int
	Time      time.Duration
}

// Exp7Result is the Figure 12 reproduction: time to aggregate the AFRs of
// `Flows` flows with and without the vectorized merge path. These are
// real wall-clock measurements of the controller's production merge: the
// vectorized rows time simd.Sum and simd.Max, the kernels the columnar
// table's O3 runs over a sub-window's attribute column (the paper uses
// AVX-512; this implementation substitutes columnar unrolled kernels —
// see DESIGN.md).
type Exp7Result struct {
	Rows []Exp7Row
}

// Table renders times and the vectorization saving.
func (r Exp7Result) Table() string {
	rows := make([][]string, 0, len(r.Rows))
	byOp := map[string][2]time.Duration{}
	for _, row := range r.Rows {
		path := "scalar"
		if row.Vectoried {
			path = "vectorized"
		}
		rows = append(rows, []string{row.Op, path, fmt.Sprintf("%d", row.Flows),
			fmt.Sprintf("%.1f", float64(row.Time.Nanoseconds())/1e3)})
		v := byOp[row.Op]
		if row.Vectoried {
			v[1] = row.Time
		} else {
			v[0] = row.Time
		}
		byOp[row.Op] = v
	}
	s := table([]string{"Op", "Path", "Flows", "Time(us)"}, rows)
	for op, v := range byOp {
		if v[0] > 0 && v[1] > 0 {
			s += fmt.Sprintf("%s: vectorized path saves %s\n", op, pct(1-float64(v[1])/float64(v[0])))
		}
	}
	return s
}

// Reduction returns the fractional time saving of the vectorized path for
// an operation.
func (r Exp7Result) Reduction(op string) float64 {
	var scalar, vec time.Duration
	for _, row := range r.Rows {
		if row.Op != op {
			continue
		}
		if row.Vectoried {
			vec = row.Time
		} else {
			scalar = row.Time
		}
	}
	if scalar == 0 {
		return 0
	}
	return 1 - float64(vec)/float64(scalar)
}

// RunExp7 reproduces Exp#7 (Figure 12) for `flows` AFRs (the paper uses
// 1 M).
func RunExp7(flows int) Exp7Result {
	dst := make([]uint64, flows)
	src := make([]uint64, flows)
	for i := range src {
		dst[i] = uint64(i * 3)
		src[i] = uint64(i * 7)
	}
	// measure runs fn `reps` times over fresh copies and returns the
	// best time (least-noise estimator for short kernels).
	work := make([]uint64, flows)
	measure := func(fn func(d, s []uint64)) time.Duration {
		best := time.Duration(1 << 62)
		for rep := 0; rep < 7; rep++ {
			copy(work, dst)
			start := time.Now()
			fn(work, src)
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best
	}

	var res Exp7Result
	for _, op := range []struct {
		name   string
		op     simd.Op
		kernel func(dst, src []uint64) // what controller.table.merge calls
	}{{"sum", simd.OpSum, simd.Sum}, {"max", simd.OpMax, simd.Max}} {
		scalar := measure(func(d, s []uint64) { simd.MergeScalar(d, s, op.op) })
		vec := measure(op.kernel)
		res.Rows = append(res.Rows,
			Exp7Row{Op: op.name, Vectoried: false, Flows: flows, Time: scalar},
			Exp7Row{Op: op.name, Vectoried: true, Flows: flows, Time: vec},
		)
	}
	return res
}
