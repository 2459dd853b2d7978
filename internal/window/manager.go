package window

import "omniwindow/internal/packet"

// Manager runs the window mechanism at one switch: it consults the local
// Signal, applies the consistency Stamper, routes packets to memory
// regions and reports sub-window terminations so the C&R machinery can
// collect and reset the retired region.
type Manager struct {
	signal  Signal
	stamper Stamper
	regions Regions
	cur     uint64
}

// NewManager builds a manager. A terminated sub-window stays monitorable
// only while its memory region is not yet recycled, so the stamper's
// Preserve is the region count minus the active region: with n regions the
// active sub-window plus n-1 previous ones have live state to monitor
// into. A deeper Preserve would promise out-of-order tolerance the data
// plane cannot honor — the "preserved" region already holds newer state.
func NewManager(signal Signal, regions Regions) *Manager {
	return &Manager{
		signal:  signal,
		stamper: Stamper{Preserve: uint64(regions.N() - 1)},
		regions: regions,
	}
}

// Cur returns the switch's current sub-window.
func (m *Manager) Cur() uint64 { return m.cur }

// Regions returns the memory layout.
func (m *Manager) Regions() Regions { return m.regions }

// Result is the outcome of processing one packet through the window
// mechanism.
type Result struct {
	Decision
	// Region hosts the monitored sub-window (valid unless Spike).
	Region int
	// Offset is the flat-array offset of that region (the address MAT
	// output added to per-key slot indexes).
	Offset int
	// Terminated lists sub-windows that ended because the local
	// sub-window advanced while processing this packet (usually zero or
	// one; several after an idle gap under a timeout signal).
	Terminated []uint64
}

// OnPacket processes one packet at virtual time now.
func (m *Manager) OnPacket(p *packet.Packet, now int64) Result {
	target := m.cur
	if !p.OW.HasSubWindow {
		// Only the first hop consults the local signal; later hops are
		// driven purely by the embedded stamp (§5).
		target = m.signal.Target(m.cur, p, now)
	}
	d := m.stamper.Apply(m.cur, p, target)
	var terminated []uint64
	for sw := m.cur; sw < d.Cur; sw++ {
		terminated = append(terminated, sw)
	}
	m.cur = d.Cur
	r := Result{Decision: d, Terminated: terminated}
	if !d.Spike {
		r.Region = m.regions.Index(d.Monitor)
		r.Offset = m.regions.Offset(d.Monitor)
	}
	return r
}

// ForceTerminate ends the current sub-window unconditionally (used when a
// deployment shuts down and must flush the active sub-window). It returns
// the terminated sub-window's index.
func (m *Manager) ForceTerminate() uint64 {
	ended := m.cur
	m.cur++
	return ended
}

// FastForward jumps the manager to sub-window sw without terminating the
// skipped ones. A controller restarting from a checkpoint uses it so the
// sub-windows the pre-crash run already finished are not re-terminated
// (and their windows not re-emitted) when the first post-restart packet
// arrives. Moving backwards is a no-op: sub-windows only advance.
func (m *Manager) FastForward(sw uint64) {
	if sw > m.cur {
		m.cur = sw
	}
}

// Tick advances the window mechanism with a pure timing event (no packet):
// the periodic timeout signals OmniWindow generates so windows terminate
// even when the link goes quiet. It returns the terminated sub-windows.
func (m *Manager) Tick(now int64) []uint64 {
	tick := &packet.Packet{Time: now}
	target := m.signal.Target(m.cur, tick, now)
	if target <= m.cur {
		return nil
	}
	var terminated []uint64
	for sw := m.cur; sw < target; sw++ {
		terminated = append(terminated, sw)
	}
	m.cur = target
	return terminated
}
