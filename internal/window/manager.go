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
	// unsynced marks a freshly booted manager whose sub-window counter
	// restarted at 0: its first advance (signal- or stamp-driven) adopts
	// the target without terminating the skipped range, which belongs to
	// sub-windows this incarnation never observed. Terminating them would
	// re-announce sub-windows the controller already finished and
	// double-emit their windows.
	unsynced bool
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

// Epoch returns the switch's current synchronization epoch (0 when epochs
// are unused or the switch is unsynced after a reboot).
func (m *Manager) Epoch() uint64 { return m.stamper.Epoch }

// Regions returns the memory layout.
func (m *Manager) Regions() Regions { return m.regions }

// Result is the outcome of processing one packet through the window
// mechanism.
type Result struct {
	Decision
	// Region hosts the monitored sub-window (valid unless Spike or
	// StaleEpoch).
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
	if d.StaleEpoch {
		// The stamp is garbage from a rebooted, unsynced switch: no
		// monitoring, no window movement, no termination.
		return Result{Decision: d}
	}
	var terminated []uint64
	if d.Cur > m.cur {
		// On resync — epoch adoption from a newer stamp, or the first
		// advance of a freshly booted manager — the jump is NOT a
		// termination: the skipped range belongs to the pre-reboot
		// incarnation (or to other switches).
		if !d.Resynced && !m.unsynced {
			for sw := m.cur; sw < d.Cur; sw++ {
				terminated = append(terminated, sw)
			}
		}
		m.unsynced = false
	}
	m.cur = d.Cur
	m.stamper.Epoch = d.Epoch
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
// arrives; an epoch beacon uses it to resync a rebooted switch that
// carries no traffic. Moving backwards is a no-op: sub-windows only
// advance.
func (m *Manager) FastForward(sw uint64) {
	if sw > m.cur {
		m.cur = sw
	}
}

// Resync applies a controller-announced epoch/sub-window beacon: the
// switch adopts the fabric epoch and jumps forward to the announced
// sub-window (without terminating the skipped ones — their state belongs
// to the pre-reboot incarnation or to other switches). A beacon from an
// older epoch than the switch already has is ignored.
func (m *Manager) Resync(epoch, sw uint64) {
	if epoch < m.stamper.Epoch {
		return
	}
	m.stamper.Epoch = epoch
	m.FastForward(sw)
	m.unsynced = false
}

// BootUnsynced marks the manager as freshly booted: its counter restarted
// at 0 and the first advance — from the local signal, a stamp, or a beacon
// — adopts the target sub-window without terminating the skipped range.
// Deployment.Reboot calls this so a power-cycled switch rejoining
// mid-stream cannot re-announce long-finished sub-windows.
func (m *Manager) BootUnsynced() { m.unsynced = true }

// Tick advances the window mechanism with a pure timing event (no packet):
// the periodic timeout signals OmniWindow generates so windows terminate
// even when the link goes quiet. It returns the terminated sub-windows.
func (m *Manager) Tick(now int64) []uint64 {
	tick := &packet.Packet{Time: now}
	target := m.signal.Target(m.cur, tick, now)
	if target <= m.cur {
		return nil
	}
	if m.unsynced {
		// Freshly booted: adopt the clock's sub-window without announcing
		// terminations for a range this incarnation never observed.
		m.cur = target
		m.unsynced = false
		return nil
	}
	var terminated []uint64
	for sw := m.cur; sw < target; sw++ {
		terminated = append(terminated, sw)
	}
	m.cur = target
	return terminated
}
