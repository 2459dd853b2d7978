package sketch

import (
	"omniwindow/internal/hashing"
	"omniwindow/internal/packet"
)

// CountMin is the classic Count-Min sketch (Cormode & Muthukrishnan): d
// rows of w counters; Update increments one counter per row; Query takes
// the row minimum, giving a one-sided (over-)estimate.
type CountMin struct {
	rows [][]uint64
	fam  *hashing.Family
	w    int
}

// NewCountMin builds a d x w Count-Min sketch seeded from seed.
func NewCountMin(d, w int, seed uint64) *CountMin {
	if d <= 0 || w <= 0 {
		panic("sketch: CountMin dimensions must be positive")
	}
	cm := &CountMin{fam: hashing.NewFamily(d, seed), w: w}
	cm.rows = make([][]uint64, d)
	backing := make([]uint64, d*w)
	for i := range cm.rows {
		cm.rows[i], backing = backing[:w], backing[w:]
	}
	return cm
}

// NewCountMinBytes builds a Count-Min sketch of depth d that fits within
// memoryBytes (8-byte counters), matching the paper's "width is calculated
// according to the depth and the memory usage of each bucket".
func NewCountMinBytes(d, memoryBytes int, seed uint64) *CountMin {
	w := memoryBytes / (d * 8)
	if w < 1 {
		w = 1
	}
	return NewCountMin(d, w, seed)
}

// Depth returns the number of rows.
func (cm *CountMin) Depth() int { return len(cm.rows) }

// Width returns the number of counters per row.
func (cm *CountMin) Width() int { return cm.w }

// Update implements Sketch.
func (cm *CountMin) Update(k packet.FlowKey, v uint64) {
	l := hashing.LanesOf(k)
	for i, row := range cm.rows {
		row[l.Index(cm.fam.Seed(i), cm.w)] += v
	}
}

// Query implements Sketch.
func (cm *CountMin) Query(k packet.FlowKey) uint64 {
	est := ^uint64(0)
	l := hashing.LanesOf(k)
	for i, row := range cm.rows {
		if c := row[l.Index(cm.fam.Seed(i), cm.w)]; c < est {
			est = c
		}
	}
	return est
}

// Reset implements Sketch.
func (cm *CountMin) Reset() {
	for _, row := range cm.rows {
		clear(row)
	}
}

// MemoryBytes implements Sketch.
func (cm *CountMin) MemoryBytes() int { return len(cm.rows) * cm.w * 8 }

// Merge adds another Count-Min sketch with identical dimensions and seeds
// into cm. Merging is what the "merge sub-window states" strawman of §4.1
// does — it is exact for CM counters but amplifies collision error, which
// Exp#A1 (ablation) quantifies.
func (cm *CountMin) Merge(o *CountMin) {
	if len(cm.rows) != len(o.rows) || cm.w != o.w {
		panic("sketch: merging incompatible Count-Min sketches")
	}
	for i, row := range cm.rows {
		for j, v := range o.rows[i] {
			row[j] += v
		}
	}
}

// SuMax is the SuMax sketch (LightGuardian, NSDI'21): the same geometry as
// Count-Min but with the conservative-update policy — only the counters
// that currently equal the row minimum are advanced, so each update raises
// the estimate by exactly what is necessary. This keeps the one-sided error
// guarantee while shrinking it substantially.
type SuMax struct {
	rows [][]uint64
	fam  *hashing.Family
	w    int
	// idx is reused across updates to avoid per-packet allocation.
	idx []int
}

// NewSuMax builds a d x w SuMax sketch.
func NewSuMax(d, w int, seed uint64) *SuMax {
	if d <= 0 || w <= 0 {
		panic("sketch: SuMax dimensions must be positive")
	}
	sm := &SuMax{fam: hashing.NewFamily(d, seed), w: w, idx: make([]int, d)}
	sm.rows = make([][]uint64, d)
	backing := make([]uint64, d*w)
	for i := range sm.rows {
		sm.rows[i], backing = backing[:w], backing[w:]
	}
	return sm
}

// NewSuMaxBytes builds a SuMax sketch of depth d within memoryBytes.
func NewSuMaxBytes(d, memoryBytes int, seed uint64) *SuMax {
	w := memoryBytes / (d * 8)
	if w < 1 {
		w = 1
	}
	return NewSuMax(d, w, seed)
}

// Update implements Sketch with the conservative-update rule.
func (sm *SuMax) Update(k packet.FlowKey, v uint64) {
	min := ^uint64(0)
	l := hashing.LanesOf(k)
	for i, row := range sm.rows {
		sm.idx[i] = l.Index(sm.fam.Seed(i), sm.w)
		if c := row[sm.idx[i]]; c < min {
			min = c
		}
	}
	target := min + v
	for i, row := range sm.rows {
		if row[sm.idx[i]] < target {
			row[sm.idx[i]] = target
		}
	}
}

// Query implements Sketch.
func (sm *SuMax) Query(k packet.FlowKey) uint64 {
	est := ^uint64(0)
	l := hashing.LanesOf(k)
	for i, row := range sm.rows {
		if c := row[l.Index(sm.fam.Seed(i), sm.w)]; c < est {
			est = c
		}
	}
	return est
}

// Reset implements Sketch.
func (sm *SuMax) Reset() {
	for _, row := range sm.rows {
		clear(row)
	}
}

// MemoryBytes implements Sketch.
func (sm *SuMax) MemoryBytes() int { return len(sm.rows) * sm.w * 8 }
