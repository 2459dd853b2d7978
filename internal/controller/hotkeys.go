package controller

import (
	"math/bits"

	"omniwindow/internal/hashing"
	"omniwindow/internal/packet"
)

// HotTracker implements the controller side of the RDMA address MAT (§7):
// it monitors how often each flow key recurs across sub-windows and
// decides which keys deserve a cached memory address in the switch
// (hot keys get a registered row that RDMA WRITEs land in; cold keys go
// through the append buffer).
//
// Its layout is the table's (table.go) at tracker scale: an open-addressed
// index resolves a key to a dense row holding the key and its state. Most
// keys a sub-window sends never recur, so the rows live in fixed pages
// (growing never copies a row) and Decay is one sweep that moves the
// survivors to the front and rebuilds the index over them, instead of one
// deletion per forgotten key.
type HotTracker struct {
	capacity  int
	threshold int
	hotCount  int

	// index is open-addressed with linear probing and at most half full.
	// With mask = len(index)-1, a slot is tag | row+1 (0 = empty): row+1
	// takes the bits under mask and the tag is the high half of the key's
	// hashing.Place64 above them, so a probe rejects strangers without
	// reading their row. A key's home slot is the low half, masked.
	index []uint32
	// pages hold rows [0, n) in row order, hotPageRows to a page.
	pages [][]hotRow
	n     int
	// demoted is Decay's result, reused from one call to the next.
	demoted []packet.FlowKey
}

// hotRow is one tracked key. state packs its observation count (bits 1 and
// up) with its hotness (bit 0), so an observation is one read-modify-write.
type hotRow struct {
	key   packet.FlowKey
	state int32
}

const (
	hotBit = 1
	// hotPageRows is a page's row count (20 KiB a page).
	hotPageRows = 1024
	// minHotIndex is a new tracker's index length.
	minHotIndex = 64
)

// NewHotTracker builds a tracker for an address MAT of the given capacity;
// keys become hot after `threshold` observations.
func NewHotTracker(capacity, threshold int) *HotTracker {
	if capacity <= 0 {
		panic("controller: hot tracker capacity must be positive")
	}
	if threshold < 1 {
		threshold = 1
	}
	return &HotTracker{
		capacity:  capacity,
		threshold: threshold,
		index:     make([]uint32, minHotIndex),
	}
}

func (h *HotTracker) at(r int) *hotRow { return &h.pages[r/hotPageRows][r%hotPageRows] }

// Observe records one appearance of k (one AFR in one sub-window) and
// returns whether k just crossed into hotness and should be installed in
// the switch's address MAT (subject to capacity). It is ObserveAFRs for
// one record.
func (h *HotTracker) Observe(k packet.FlowKey) (promote bool) {
	rec, p := [1]packet.AFR{{Key: k}}, [1]bool{}
	h.ObserveAFRs(rec[:], p[:])
	return p[0]
}

// ObserveAFRs observes each record's key in order, as Observe would one
// by one, and sets promote[i] to whether recs[i]'s key just crossed into
// hotness; promote must be at least as long as recs. Keys are hashed
// tagBlock ahead of their probes, so the probes' cache misses overlap.
// Observing keys the tracker holds does not allocate.
func (h *HotTracker) ObserveAFRs(recs []packet.AFR, promote []bool) {
	var hashes [tagBlock]uint64
	for len(recs) > 0 {
		blk := recs[:min(len(recs), tagBlock)]
		for i := range blk {
			hashes[i] = hashing.Place64(blk[i].Key)
		}
		for i := range blk {
			r := h.row(blk[i].Key, hashes[i])
			v := r.state + 2
			p := v&hotBit == 0 && int(v>>1) >= h.threshold && h.hotCount < h.capacity
			if p {
				v |= hotBit
				h.hotCount++
			}
			r.state = v
			promote[i] = p
		}
		recs, promote = recs[len(blk):], promote[len(blk):]
	}
}

// lookup probes for k, whose hash is hash: its row, or nil and the empty
// slot that ends k's probe path.
func (h *HotTracker) lookup(k packet.FlowKey, hash uint64) (*hotRow, uint32) {
	mask := uint32(len(h.index) - 1)
	tag := uint32(hash>>32) &^ mask
	i := uint32(hash) & mask
	for ; h.index[i] != 0; i = (i + 1) & mask {
		if s := h.index[i]; s&^mask == tag {
			if r := h.at(int(s&mask) - 1); r.key == k {
				return r, 0
			}
		}
	}
	return nil, i
}

// row returns k's row, adding a zero-state one if k has none.
func (h *HotTracker) row(k packet.FlowKey, hash uint64) *hotRow {
	r, i := h.lookup(k, hash)
	if r != nil {
		return r
	}
	if 2*(h.n+1) > len(h.index) {
		h.reindex(2 * len(h.index))
		_, i = h.lookup(k, hash)
	}
	if h.n/hotPageRows == len(h.pages) {
		h.pages = append(h.pages, make([]hotRow, hotPageRows))
	}
	mask := uint32(len(h.index) - 1)
	h.index[i] = uint32(hash>>32)&^mask | uint32(h.n+1)
	r = h.at(h.n)
	*r = hotRow{key: k}
	h.n++
	return r
}

// reindex rebuilds the index over rows [0, n) at the given power-of-two
// length, in place when the length does not change.
func (h *HotTracker) reindex(size int) {
	if size == len(h.index) {
		clear(h.index)
	} else {
		h.index = make([]uint32, size)
	}
	mask := uint32(size - 1)
	for r := 0; r < h.n; r++ {
		hash := hashing.Place64(h.at(r).key)
		i := uint32(hash) & mask
		for h.index[i] != 0 {
			i = (i + 1) & mask
		}
		h.index[i] = uint32(hash>>32)&^mask | uint32(r+1)
	}
}

// IsHot reports whether k currently holds an address MAT entry.
func (h *HotTracker) IsHot(k packet.FlowKey) bool {
	r, _ := h.lookup(k, hashing.Place64(k))
	return r != nil && r.state&hotBit != 0
}

// HotCount returns the number of installed hot keys.
func (h *HotTracker) HotCount() int { return h.hotCount }

// Decay ages all counts at a window boundary and returns the keys that
// went cold and must be deleted from the address MAT. The result is the
// tracker's own buffer, valid until the next Decay.
//
// One sweep halves every count, keeps the rows whose count is still
// non-zero at the front in row order and rebuilds the index over them.
// The storage is then sized for 1.5x the keys this interval held: pages
// beyond that are released, and a longer index is rebuilt at the length
// that holds that many keys at most half full. A one-off peak (the first
// window's) is not kept for the deployment's lifetime, and intervals of
// similar size reuse the same storage without allocating.
func (h *HotTracker) Decay() (demote []packet.FlowKey) {
	demote = h.demoted[:0]
	held, kept := h.n, 0
	for r := 0; r < held; r++ {
		row := *h.at(r)
		c, hot := row.state>>2, row.state&hotBit
		if hot != 0 && int(c) < h.threshold {
			hot = 0
			h.hotCount--
			demote = append(demote, row.key)
		}
		if c == 0 {
			continue
		}
		*h.at(kept) = hotRow{key: row.key, state: c<<1 | hot}
		kept++
	}
	h.n, h.demoted = kept, demote

	want := held + held/2
	if pages := max((want+hotPageRows-1)/hotPageRows, 1); pages < len(h.pages) {
		clear(h.pages[pages:])
		h.pages = h.pages[:pages]
	}
	h.reindex(min(len(h.index), max(1<<bits.Len(uint(2*want)), minHotIndex)))
	return demote
}
