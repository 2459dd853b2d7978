package controller

import "omniwindow/internal/packet"

// HotTracker implements the controller side of the RDMA address MAT (§7):
// it monitors how often each flow key recurs across sub-windows and
// decides which keys deserve a cached memory address in the switch
// (hot keys get a registered row that RDMA WRITEs land in; cold keys go
// through the append buffer).
type HotTracker struct {
	capacity  int
	threshold int
	hotCount  int
	// state packs each tracked key's observation count (bits 1 and up)
	// with its hotness (bit 0), so one map holds both and Observe is one
	// read-modify-write of one entry.
	state map[packet.FlowKey]int32
}

const hotBit = 1

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
		state:     make(map[packet.FlowKey]int32),
	}
}

// Observe records one appearance of k (one AFR in one sub-window) and
// returns whether k just crossed into hotness and should be installed in
// the switch's address MAT (subject to capacity).
func (h *HotTracker) Observe(k packet.FlowKey) (promote bool) {
	v := h.state[k] + 2
	if v&hotBit == 0 && int(v>>1) >= h.threshold && h.hotCount < h.capacity {
		v |= hotBit
		h.hotCount++
		promote = true
	}
	h.state[k] = v
	return promote
}

// IsHot reports whether k currently holds an address MAT entry.
func (h *HotTracker) IsHot(k packet.FlowKey) bool { return h.state[k]&hotBit != 0 }

// HotCount returns the number of installed hot keys.
func (h *HotTracker) HotCount() int { return h.hotCount }

// Decay ages all counts at a window boundary and returns the keys that
// went cold and must be deleted from the address MAT.
func (h *HotTracker) Decay() (demote []packet.FlowKey) {
	for k, v := range h.state {
		c, hot := v>>2, v&hotBit
		if hot != 0 && int(c) < h.threshold {
			hot = 0
			h.hotCount--
			demote = append(demote, k)
		}
		if c == 0 {
			delete(h.state, k)
			continue
		}
		h.state[k] = c<<1 | hot
	}
	return demote
}
