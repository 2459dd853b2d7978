package query

import (
	"omniwindow/internal/afr"
	"omniwindow/internal/hashing"
	"omniwindow/internal/packet"
)

// Thresholds configures the anomaly-detection cutoffs of the evaluation
// queries. Zero fields take the defaults below.
type Thresholds struct {
	NewConns     uint64 // Q1: new TCP connections per source host
	SSHAttempts  uint64 // Q2: brute-force attempts per victim
	ScanPorts    uint64 // Q3: distinct probed ports per victim
	DDoSSources  uint64 // Q4: distinct sources per victim
	SynFlood     uint64 // Q5: bare SYNs per victim
	Completed    uint64 // Q6: completed (FIN) flows per host
	SlowlorisCon uint64 // Q7: open low-volume connections per victim
}

// DefaultThresholds returns cutoffs sized for the synthetic trace.
func DefaultThresholds() Thresholds {
	return Thresholds{
		NewConns:     40,
		SSHAttempts:  40,
		ScanPorts:    60,
		DDoSSources:  60,
		SynFlood:     50,
		Completed:    30,
		SlowlorisCon: 30,
	}
}

func (t *Thresholds) defaults() {
	d := DefaultThresholds()
	if t.NewConns == 0 {
		t.NewConns = d.NewConns
	}
	if t.SSHAttempts == 0 {
		t.SSHAttempts = d.SSHAttempts
	}
	if t.ScanPorts == 0 {
		t.ScanPorts = d.ScanPorts
	}
	if t.DDoSSources == 0 {
		t.DDoSSources = d.DDoSSources
	}
	if t.SynFlood == 0 {
		t.SynFlood = d.SynFlood
	}
	if t.Completed == 0 {
		t.Completed = d.Completed
	}
	if t.SlowlorisCon == 0 {
		t.SlowlorisCon = d.SlowlorisCon
	}
}

// connHash hashes the packet's full 5-tuple, the distinct element for
// connection-counting queries.
func connHash(p *packet.Packet) uint64 { return hashing.Key64(p.Key, 0xC04) }

// srcHash hashes the packet's source host.
func srcHash(p *packet.Packet) uint64 { return uint64(p.Key.SrcIP) }

// isTCP reports whether the packet is TCP.
func isTCP(p *packet.Packet) bool { return p.Key.Proto == packet.ProtoTCP }

// bareSYN matches connection-opening SYNs (no ACK).
func bareSYN(p *packet.Packet) bool {
	return isTCP(p) && p.HasFlags(packet.FlagSYN) && !p.HasFlags(packet.FlagACK)
}

// NewConnQuery (Q1) detects hosts opening too many new TCP connections
// [NetQRE]: distinct connections initiated per source host.
func NewConnQuery(t Thresholds) *Query {
	t.defaults()
	return &Query{
		Name:      "Q1-new-tcp-conns",
		Filter:    bareSYN,
		Key:       func(p *packet.Packet) packet.FlowKey { return p.Key.SrcHostKey() },
		Distinct:  connHash,
		Kind:      afr.Distinction,
		Threshold: t.NewConns,
	}
}

// SSHBruteQuery (Q2) detects hosts under SSH brute-force attack [Javed &
// Paxson]: distinct connection attempts to port 22 per victim host.
func SSHBruteQuery(t Thresholds) *Query {
	t.defaults()
	return &Query{
		Name: "Q2-ssh-brute-force",
		Filter: func(p *packet.Packet) bool {
			return isTCP(p) && p.Key.DstPort == 22
		},
		Key:       func(p *packet.Packet) packet.FlowKey { return p.Key.DstHostKey() },
		Distinct:  connHash,
		Kind:      afr.Distinction,
		Threshold: t.SSHAttempts,
	}
}

// PortScanQuery (Q3) detects hosts under port scanning [Jung et al.]:
// distinct destination ports probed per victim host.
func PortScanQuery(t Thresholds) *Query {
	t.defaults()
	return &Query{
		Name:      "Q3-port-scan",
		Filter:    bareSYN,
		Key:       func(p *packet.Packet) packet.FlowKey { return p.Key.DstHostKey() },
		Distinct:  func(p *packet.Packet) uint64 { return uint64(p.Key.DstPort) },
		Kind:      afr.Distinction,
		Threshold: t.ScanPorts,
	}
}

// DDoSQuery (Q4) detects hosts under DDoS [OpenSketch]: distinct source
// hosts per victim host.
func DDoSQuery(t Thresholds) *Query {
	t.defaults()
	return &Query{
		Name:      "Q4-ddos",
		Key:       func(p *packet.Packet) packet.FlowKey { return p.Key.DstHostKey() },
		Distinct:  srcHash,
		Kind:      afr.Distinction,
		Threshold: t.DDoSSources,
	}
}

// SynFloodQuery (Q5) detects hosts under SYN flood [NetQRE]: bare SYN
// count per victim host.
func SynFloodQuery(t Thresholds) *Query {
	t.defaults()
	return &Query{
		Name:      "Q5-syn-flood",
		Filter:    bareSYN,
		Key:       func(p *packet.Packet) packet.FlowKey { return p.Key.DstHostKey() },
		Kind:      afr.Frequency,
		Threshold: t.SynFlood,
	}
}

// CompletedFlowsQuery (Q6) detects hosts with anomalously many completed
// TCP flows: FIN-bearing flows per host.
func CompletedFlowsQuery(t Thresholds) *Query {
	t.defaults()
	return &Query{
		Name: "Q6-completed-flows",
		Filter: func(p *packet.Packet) bool {
			return isTCP(p) && p.HasFlags(packet.FlagFIN)
		},
		Key:       func(p *packet.Packet) packet.FlowKey { return p.Key.DstHostKey() },
		Distinct:  connHash,
		Kind:      afr.Distinction,
		Threshold: t.Completed,
	}
}

// SlowlorisQuery (Q7) detects hosts under Slowloris attack [NetQRE]: many
// distinct low-volume connections holding port 80 open per victim.
func SlowlorisQuery(t Thresholds) *Query {
	t.defaults()
	return &Query{
		Name: "Q7-slowloris",
		Filter: func(p *packet.Packet) bool {
			return isTCP(p) && p.Key.DstPort == 80 && p.Size < 128
		},
		Key:       func(p *packet.Packet) packet.FlowKey { return p.Key.DstHostKey() },
		Distinct:  connHash,
		Kind:      afr.Distinction,
		Threshold: t.SlowlorisCon,
	}
}

// All returns Q1..Q7 with the given thresholds.
func All(t Thresholds) []*Query {
	return []*Query{
		NewConnQuery(t),
		SSHBruteQuery(t),
		PortScanQuery(t),
		DDoSQuery(t),
		SynFloodQuery(t),
		CompletedFlowsQuery(t),
		SlowlorisQuery(t),
	}
}
