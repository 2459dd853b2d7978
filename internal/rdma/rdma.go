// Package rdma simulates the RDMA-based collection optimization of §7:
// switches encapsulate AFRs into RoCEv2 requests that land directly in a
// registered controller memory region, bypassing the controller CPU. Hot
// keys carry cached row addresses from a switch-side address MAT and WRITE
// each sub-window's attribute into its own lane of the row; cold keys
// append to a sequentially growing ring whose addresses the switch
// computes itself, many records per append verb (the Key-Write / Append
// split of Direct Telemetry Access). (The paper also offloads frequency
// sums to the RNIC with Fetch-and-Add; the controller merges every kind
// itself here, so the lanes keep one attribute per sub-window instead.)
//
// The simulation preserves the two properties the evaluation depends on:
// verbs consume no controller CPU (only the cold-key drain does), and each
// verb has a fixed RNIC latency from the switchsim cost model.
//
// Transport (transport.go) is the fault-tolerant path the deployment
// sends through. It has one send path, Transport.SendBatch: one hold of
// its lock for a delivery batch, records passed by pointer, each record's
// promotion applied just before that record is classified. Each hot
// record is one WRITE verb; the batch's cold records are one append verb.
// A verb has one verb index, one series of fault draws, one PSN and one
// replay-ring entry; fallback is routed and shed charged per record. Send is
// SendBatch of one record.
package rdma

import (
	"fmt"
	"slices"

	"omniwindow/internal/packet"
)

// MemoryRegion is the RDMA-registered controller memory: a hot-key table
// of fixed-size rows plus one cold-key append ring.
type MemoryRegion struct {
	// lanes is the number of slots per hot-key row: one per sub-window
	// position within a window, so per-sub-window attributes group by key
	// ("the AFRs of different sub-windows are grouped based on keys").
	lanes int
	slots []uint64
	rows  int
	used  int

	// buffer is the cold ring the RNIC appends into, from offset 0 after
	// each Drain. It grows on demand, to at most bufCap records.
	buffer []packet.AFR
	bufCap int
}

// NewMemoryRegion registers memory for `rows` hot keys of `lanes` slots
// each and a cold ring bounded at bufCap records.
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
// is zeroed, the cold ring's records are destroyed, and the row allocator
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

// AppendRun executes one append verb: run lands in the cold ring with one
// copy, at offset off. The switch computes the target address itself
// because the ring grows sequentially; the simulation enforces only
// capacity. When the ring has room for part of the run only, that prefix
// lands and landed reports its length; the caller decides what becomes of
// the rest.
func (n *NIC) AppendRun(run []packet.AFR) (off, landed int) {
	buf := n.mr.buffer
	off = len(buf)
	landed = min(len(run), n.mr.bufCap-off)
	if landed <= 0 {
		return off, 0
	}
	if off+landed > cap(buf) {
		// Double (append's own 1.25x steps would allocate several times
		// the final size on the way to a large boundary), bounded by
		// what the registration allows.
		buf = slices.Grow(buf, max(landed, min(max(off, 1024), n.mr.bufCap-off)))
	}
	n.mr.buffer = append(buf, run[:landed]...)
	n.Appends++
	return off, landed
}

// Room reports how many more records the cold ring can take before the
// next Drain.
func (n *NIC) Room() int { return n.mr.bufCap - len(n.mr.buffer) }

// Drain hands the cold ring's records to the controller CPU — the only
// RDMA-path step that costs controller cycles — without a copy, and
// rewinds the ring: the returned slice is valid until the next append
// overwrites it.
func (n *NIC) Drain() []packet.AFR {
	out := n.mr.buffer
	n.mr.buffer = out[:0]
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
