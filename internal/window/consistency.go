package window

import "omniwindow/internal/packet"

// Stamper implements the lightweight consistency model of §5, following
// Lamport timestamps: the first-hop switch determines a packet's
// sub-window once, embeds it, and every later switch monitors the packet
// into the embedded sub-window — updating its own sub-window if the stamp
// is newer. This guarantees (i) a packet is monitored in the same
// sub-window network-wide even under delays, and (ii) window-moving
// signals propagate with the traffic itself, with no extra messages.
type Stamper struct {
	// Preserve is how many terminated sub-windows stay monitorable so
	// out-of-order packets can still land in their stamped sub-window.
	// It is bounded by the number of memory regions minus the active one.
	Preserve uint64
}

// Decision is the outcome of applying the consistency model to a packet.
type Decision struct {
	// Monitor is the sub-window to record the packet into. Ignore it
	// when Spike is true.
	Monitor uint64
	// Cur is the switch's (possibly advanced) local sub-window.
	Cur uint64
	// Stamped reports whether this switch acted as the first hop and
	// wrote the packet's stamp.
	Stamped bool
	// Spike reports a latency spike: the embedded sub-window is older
	// than every preserved one, so a copy must go to the controller for
	// software handling instead of being monitored in the data plane.
	Spike bool
}

// Apply processes one packet at a switch whose local sub-window is cur.
// target is the local Signal's verdict for this packet (consulted only
// when the packet carries no stamp).
func (s Stamper) Apply(cur uint64, p *packet.Packet, target uint64) Decision {
	if !p.OW.HasSubWindow {
		// First hop: decide once, stamp, and propagate.
		if target < cur {
			target = cur
		}
		p.OW.SubWindow = target
		p.OW.HasSubWindow = true
		return Decision{Monitor: target, Cur: target, Stamped: true}
	}
	emb := p.OW.SubWindow
	newCur := cur
	if emb > newCur {
		// Window-moving signal carried by the packet (Figure 4, packet D).
		newCur = emb
	}
	// The embedded sub-window must still be preserved at this switch.
	if emb+s.Preserve < newCur {
		return Decision{Cur: newCur, Spike: true}
	}
	return Decision{Monitor: emb, Cur: newCur}
}
