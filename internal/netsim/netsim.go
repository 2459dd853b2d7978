// Package netsim simulates multi-switch packet paths for the network-wide
// experiments: per-switch clock offsets (modeling PTP deviation), per-link
// delays, and packet loss injection. Exp#9 uses it to compare OmniWindow's
// consistency model against local-clock windowing with two LossRadar
// meters on adjacent switches.
package netsim

import (
	"math/rand"

	"omniwindow/internal/packet"
)

// Hop is one switch on a path.
type Hop struct {
	// Offset is the hop's clock deviation from true time in virtual ns
	// (what PTP leaves uncorrected).
	Offset int64
	// Process handles the packet at this hop with the hop's local time.
	Process func(p *packet.Packet, localTime int64)
}

// Path is a linear sequence of hops joined by links.
type Path struct {
	Hops []Hop
	// LinkDelay[i] is the latency of the link after hop i; its length
	// must be len(Hops)-1 (or nil for zero delays).
	LinkDelay []int64
	// Loss, when non-nil, decides whether the link after hop `hop` drops
	// the packet.
	Loss func(p *packet.Packet, hop int) bool
}

// Run sends every trace packet along the path in order. The same packet
// object traverses all hops, so header mutations (OmniWindow stamps)
// propagate exactly as on the wire. It returns the number of packets
// dropped by link loss.
func (path Path) Run(pkts []packet.Packet) (dropped int) {
	for i := range pkts {
		p := pkts[i] // copy: hops mutate the header
		t := p.Time
		for h := range path.Hops {
			hop := &path.Hops[h]
			hop.Process(&p, t+hop.Offset)
			if h == len(path.Hops)-1 {
				break
			}
			if path.Loss != nil && path.Loss(&p, h) {
				dropped++
				break
			}
			if path.LinkDelay != nil {
				t += path.LinkDelay[h]
			}
		}
	}
	return dropped
}

// BernoulliLoss drops packets on the given link index with probability p,
// deterministically from seed.
func BernoulliLoss(link int, p float64, seed int64) func(*packet.Packet, int) bool {
	rng := rand.New(rand.NewSource(seed))
	return func(_ *packet.Packet, hop int) bool {
		if hop != link {
			return false
		}
		return rng.Float64() < p
	}
}

// SymmetricOffsets returns two-hop clock offsets +-deviation/2, the
// worst-case PTP disagreement of `deviation` between adjacent switches.
func SymmetricOffsets(deviation int64) (int64, int64) {
	return -deviation / 2, deviation - deviation/2
}
