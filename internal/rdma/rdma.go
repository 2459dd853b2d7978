// Package rdma simulates the RDMA-based collection optimization of §7:
// switches encapsulate AFRs into RoCEv2 requests that land directly in a
// registered controller memory region, bypassing the controller CPU. Hot
// keys carry cached row addresses from a switch-side address MAT and WRITE
// each sub-window's attribute into its own lane of the row; cold keys
// append to a sequentially growing buffer whose addresses the switch
// computes itself. (The paper also offloads frequency sums to the RNIC
// with Fetch-and-Add; the controller merges every kind itself here, so the
// lanes keep one attribute per sub-window instead.)
//
// The simulation preserves the two properties the evaluation depends on:
// verbs consume no controller CPU (only the cold-key drain does), and each
// verb has a fixed RNIC latency from the switchsim cost model.
//
// Transport (transport.go) is the fault-tolerant path the deployment
// sends through. It has one send path, Transport.SendBatch: one hold of
// its lock for a delivery batch, records passed by pointer, each record's
// promotion applied just before that record's send, and per record the
// same verb index, fault draws, replay-ring entry, fallback and shed as a
// lone send. Send is SendBatch of one record.
package rdma

import (
	"errors"
	"fmt"
	"slices"

	"omniwindow/internal/packet"
)

// ErrBufferFull reports that the cold-key append buffer overflowed before
// the controller drained it.
var ErrBufferFull = errors.New("rdma: cold-key buffer full")

// MemoryRegion is the RDMA-registered controller memory: a hot-key table
// of fixed-size rows plus a double-buffered cold-key append buffer.
type MemoryRegion struct {
	// lanes is the number of slots per hot-key row: one per sub-window
	// position within a window, so per-sub-window attributes group by key
	// ("the AFRs of different sub-windows are grouped based on keys").
	lanes int
	slots []uint64
	rows  int
	used  int

	// buffer is the half of the cold buffer the RNIC appends into; spare
	// is the half the last Drain handed to the controller. Both grow on
	// demand, to at most bufCap records.
	buffer, spare []packet.AFR
	bufCap        int
}

// NewMemoryRegion registers memory for `rows` hot keys of `lanes` slots
// each and a cold buffer bounded at bufCap records.
func NewMemoryRegion(rows, lanes, bufCap int) *MemoryRegion {
	if rows <= 0 || lanes <= 0 || bufCap <= 0 {
		panic("rdma: memory region dimensions must be positive")
	}
	return &MemoryRegion{
		lanes:  lanes,
		slots:  make([]uint64, rows*lanes),
		rows:   rows,
		bufCap: bufCap,
	}
}

// AllocRow reserves the next hot-key row and returns its base address, or
// false when the table is full.
func (mr *MemoryRegion) AllocRow() (base int, ok bool) {
	if mr.used >= mr.rows {
		return 0, false
	}
	base = mr.used * mr.lanes
	mr.used++
	return base, true
}

// Lanes returns the row width.
func (mr *MemoryRegion) Lanes() int { return mr.lanes }

// ResetLane zeroes one slot of a hot-key row, freeing it for the next
// sub-window that maps to the same lane.
func (mr *MemoryRegion) ResetLane(base, lane int) {
	mr.slots[base+lane] = 0
}

// Invalidate models the registration being torn down: every hot-key slot
// is zeroed, buffered cold records are destroyed, and the row allocator
// rewinds so a re-registration starts from a clean region. Verbs applied
// but not yet drained die with the registration — the transport's replay
// window is what brings them back.
func (mr *MemoryRegion) Invalidate() {
	clear(mr.slots)
	mr.buffer = mr.buffer[:0]
	mr.used = 0
}

// NIC is the controller-side RNIC executing incoming verbs. It counts
// operations so experiments can derive virtual time and verify that the
// hot path needed no controller CPU.
type NIC struct {
	mr *MemoryRegion

	Writes  int
	Appends int
}

// NewNIC attaches an RNIC to a memory region.
func NewNIC(mr *MemoryRegion) *NIC {
	return &NIC{mr: mr}
}

// Write executes an RDMA WRITE of value into slot addr.
func (n *NIC) Write(addr int, value uint64) error {
	if addr < 0 || addr >= len(n.mr.slots) {
		return fmt.Errorf("rdma: WRITE to invalid address %d", addr)
	}
	n.mr.slots[addr] = value
	n.Writes++
	return nil
}

// Append writes a cold-key AFR to the sequential buffer. The switch
// computes the target address itself because the buffer grows
// sequentially; the simulation enforces only capacity.
func (n *NIC) Append(rec *packet.AFR) error {
	buf := n.mr.buffer
	if len(buf) >= n.mr.bufCap {
		return ErrBufferFull
	}
	if len(buf) == cap(buf) {
		// Double (append's own 1.25x steps would allocate several times
		// the final size on the way to a large boundary), bounded by
		// what the registration allows.
		buf = slices.Grow(buf, min(max(len(buf), 1024), n.mr.bufCap-len(buf)))
	}
	n.mr.buffer = append(buf, *rec)
	n.Appends++
	return nil
}

// Drain hands the buffered cold-key AFRs to the controller CPU — the only
// RDMA-path step that costs controller cycles — by swapping the cold
// buffer's halves instead of copying: appends continue into the other
// half, and the returned slice is valid only until the next Drain.
func (n *NIC) Drain() []packet.AFR {
	out := n.mr.buffer
	n.mr.buffer, n.mr.spare = n.mr.spare[:0], out
	return out
}

// AddressMAT is the switch-side match-action table caching controller
// memory addresses for hot keys.
type AddressMAT struct {
	capacity int
	m        map[packet.FlowKey]int
}

// NewAddressMAT builds a MAT with the given capacity.
func NewAddressMAT(capacity int) *AddressMAT {
	if capacity <= 0 {
		panic("rdma: address MAT capacity must be positive")
	}
	return &AddressMAT{capacity: capacity, m: make(map[packet.FlowKey]int)}
}

// Insert installs a hot key's base address (controller notification).
// It reports false when the MAT is full.
func (m *AddressMAT) Insert(k packet.FlowKey, base int) bool {
	if _, ok := m.m[k]; !ok && len(m.m) >= m.capacity {
		return false
	}
	m.m[k] = base
	return true
}

// Delete removes a cold key's entry (controller notification).
func (m *AddressMAT) Delete(k packet.FlowKey) { delete(m.m, k) }

// Lookup matches a flow key, returning its base address.
func (m *AddressMAT) Lookup(k packet.FlowKey) (base int, ok bool) {
	base, ok = m.m[k]
	return base, ok
}

// Len returns the number of installed entries.
func (m *AddressMAT) Len() int { return len(m.m) }
