package window

import "fmt"

// Regions maps sub-windows onto a fixed set of shared memory regions
// (§6). Only one sub-window is active at a time, so with fast C&R two
// regions suffice: while region (sw mod 2) absorbs traffic, the other is
// collected and reset. The regions are concatenated into one flat array
// so a single SALU addresses all of them: entry address = offset(sw) +
// slot, with the offset supplied by a small match-action table.
type Regions struct {
	n     int
	slots int
}

// NewRegions builds a layout of n regions with `slots` entries per region
// per register.
func NewRegions(n, slots int) Regions {
	if n < 2 {
		panic("window: at least two regions are required to overlap measurement with C&R")
	}
	if slots <= 0 {
		panic("window: region slots must be positive")
	}
	return Regions{n: n, slots: slots}
}

// N returns the number of regions.
func (r Regions) N() int { return r.n }

// Slots returns the entries per region.
func (r Regions) Slots() int { return r.slots }

// Index returns the region that hosts sub-window sw.
func (r Regions) Index(sw uint64) int { return int(sw % uint64(r.n)) }

// Offset returns the flat-array starting position of sub-window sw's
// region — the value the address MAT adds to the per-key slot index.
func (r Regions) Offset(sw uint64) int { return r.Index(sw) * r.slots }

// FlatEntries returns the total entries of the concatenated array
// (what one register must hold under the single-SALU layout).
func (r Regions) FlatEntries() int { return r.n * r.slots }

// Addr computes the physical address of (sub-window, slot), erroring on a
// slot outside the region — the bug class the address MAT prevents.
func (r Regions) Addr(sw uint64, slot int) (int, error) {
	if slot < 0 || slot >= r.slots {
		return 0, fmt.Errorf("window: slot %d outside region of %d entries", slot, r.slots)
	}
	return r.Offset(sw) + slot, nil
}

// Plan describes how the controller merges sub-windows into complete
// windows: Size consecutive sub-windows per window, advancing by Slide
// sub-windows between emitted windows. Tumbling windows have Slide ==
// Size; sliding windows have Slide < Size; Slide > Size subsamples
// (G1 and G2 of §2).
type Plan struct {
	Size  int
	Slide int
}

// Tumbling returns a plan with no overlap.
func Tumbling(size int) Plan { return Plan{Size: size, Slide: size} }

// SlidingPlan returns an overlapped plan.
func SlidingPlan(size, slide int) Plan { return Plan{Size: size, Slide: slide} }

// Validate reports configuration errors.
func (p Plan) Validate() error {
	if p.Size <= 0 {
		return fmt.Errorf("window: plan size %d must be positive", p.Size)
	}
	if p.Slide <= 0 {
		return fmt.Errorf("window: plan slide %d must be positive", p.Slide)
	}
	return nil
}

// Ends reports whether a complete window ends with sub-window sw, and if
// so the window's first sub-window. The first window is [0, Size), then
// each later window starts Slide further.
func (p Plan) Ends(sw uint64) (start uint64, ok bool) {
	if sw+1 < uint64(p.Size) {
		return 0, false
	}
	if (sw+1-uint64(p.Size))%uint64(p.Slide) != 0 {
		return 0, false
	}
	return sw + 1 - uint64(p.Size), true
}

// Covers reports whether sub-window sw belongs to at least one window.
// Every sub-window does unless the plan subsamples (Slide > Size), which
// leaves Slide-Size sub-windows between consecutive windows that no
// window will ever read.
func (p Plan) Covers(sw uint64) bool {
	return sw%uint64(p.Slide) < uint64(p.Size)
}

// Retire returns the highest sub-window index that can be discarded once
// the window ending at sw has been processed: sub-windows older than the
// next window's start will never be needed again.
func (p Plan) Retire(sw uint64) (uint64, bool) {
	start, ok := p.Ends(sw)
	if !ok {
		return 0, false
	}
	nextStart := start + uint64(p.Slide)
	if nextStart == 0 {
		return 0, false
	}
	return nextStart - 1, true
}
