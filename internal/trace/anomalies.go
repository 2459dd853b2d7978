package trace

import (
	"math/rand"
	"slices"

	"omniwindow/internal/packet"
)

// Attacker/victim addresses live in 192.168.0.0/16 so they never collide
// with the 10.0.0.0/8 background pool.
func actorIP(i int) uint32 { return 0xC0A80000 | uint32(i&0xFFFF) }

// ActorIP exposes the anomaly address mapping so experiments can construct
// ground-truth sets for the hosts they injected.
func ActorIP(i int) uint32 { return actorIP(i) }

// TCPFanout injects a host that opens Conns new TCP connections to distinct
// destinations within Spread ns around At (query Q1: hosts opening too many
// new TCP connections).
type TCPFanout struct {
	Host   int   // actor index of the offending source host
	Conns  int   // number of distinct connections opened
	At     int64 // center time
	Spread int64 // packets fall in [At-Spread/2, At+Spread/2)
}

// Emit implements Anomaly.
func (a TCPFanout) Emit(rng *rand.Rand, duration int64, out []packet.Packet) []packet.Packet {
	for c := 0; c < a.Conns; c++ {
		key := packet.FlowKey{
			SrcIP:   actorIP(a.Host),
			DstIP:   hostIP(rng.Intn(1 << 20)),
			SrcPort: uint16(1024 + rng.Intn(64000)),
			DstPort: uint16(1 + rng.Intn(65535)),
			Proto:   packet.ProtoTCP,
		}
		t := clampTime(a.At-a.Spread/2+int64(rng.Float64()*float64(a.Spread)), duration)
		// SYN, SYN-ACK-ish follow-up, a data packet: a "new connection".
		out = append(out,
			packet.Packet{Key: key, Size: 64, TCPFlags: packet.FlagSYN, Time: t},
			packet.Packet{Key: key, Size: 64, TCPFlags: packet.FlagACK, Seq: 1, Time: t + 1e5},
			packet.Packet{Key: key, Size: 512, TCPFlags: packet.FlagACK | packet.FlagPSH, Seq: 2, Time: t + 2e5},
		)
	}
	return out
}

// SSHBruteForce injects repeated short SSH connections against a victim
// (query Q2). Each attempt is a distinct 5-tuple to port 22 with a handful
// of small packets.
type SSHBruteForce struct {
	Victim   int
	Sources  int // number of attacking hosts (distributed brute force)
	Attempts int // attempts per source
	At       int64
	Spread   int64
}

// Emit implements Anomaly.
func (a SSHBruteForce) Emit(rng *rand.Rand, duration int64, out []packet.Packet) []packet.Packet {
	for s := 0; s < a.Sources; s++ {
		src := actorIP(1000 + a.Victim*64 + s)
		for i := 0; i < a.Attempts; i++ {
			key := packet.FlowKey{
				SrcIP:   src,
				DstIP:   actorIP(a.Victim),
				SrcPort: uint16(1024 + rng.Intn(64000)),
				DstPort: 22,
				Proto:   packet.ProtoTCP,
			}
			t := clampTime(a.At-a.Spread/2+int64(rng.Float64()*float64(a.Spread)), duration)
			out = append(out,
				packet.Packet{Key: key, Size: 64, TCPFlags: packet.FlagSYN, Time: t},
				packet.Packet{Key: key, Size: 128, TCPFlags: packet.FlagACK | packet.FlagPSH, Seq: 1, Time: t + 3e5},
				packet.Packet{Key: key, Size: 64, TCPFlags: packet.FlagFIN | packet.FlagACK, Seq: 2, Time: t + 6e5},
			)
		}
	}
	return out
}

// PortScan injects one source probing many distinct ports of a victim
// (query Q3).
type PortScan struct {
	Scanner int
	Victim  int
	Ports   int
	At      int64
	Spread  int64
}

// Emit implements Anomaly.
func (a PortScan) Emit(rng *rand.Rand, duration int64, out []packet.Packet) []packet.Packet {
	for p := 0; p < a.Ports; p++ {
		key := packet.FlowKey{
			SrcIP:   actorIP(2000 + a.Scanner),
			DstIP:   actorIP(a.Victim),
			SrcPort: uint16(40000 + rng.Intn(20000)),
			DstPort: uint16(1 + (p*37)%65535),
			Proto:   packet.ProtoTCP,
		}
		t := clampTime(a.At-a.Spread/2+int64(float64(a.Spread)*float64(p)/float64(a.Ports)), duration)
		out = append(out, packet.Packet{Key: key, Size: 64, TCPFlags: packet.FlagSYN, Time: t})
	}
	return out
}

// DDoS injects many distinct sources flooding one victim (query Q4).
type DDoS struct {
	Victim        int
	Sources       int
	PktsPerSource int
	At            int64
	Spread        int64
}

// Emit implements Anomaly.
func (a DDoS) Emit(rng *rand.Rand, duration int64, out []packet.Packet) []packet.Packet {
	for s := 0; s < a.Sources; s++ {
		key := packet.FlowKey{
			SrcIP:   hostIP(1<<22 | s), // spoofed pool outside normal hosts
			DstIP:   actorIP(a.Victim),
			SrcPort: uint16(1024 + rng.Intn(64000)),
			DstPort: 80,
			Proto:   packet.ProtoUDP,
		}
		for i := 0; i < a.PktsPerSource; i++ {
			t := clampTime(a.At-a.Spread/2+int64(rng.Float64()*float64(a.Spread)), duration)
			out = append(out, packet.Packet{Key: key, Size: 1200, Seq: uint32(i), Time: t})
		}
	}
	return out
}

// SYNFlood injects a flood of bare SYNs to a victim from spoofed sources
// with no completing handshakes (query Q5).
type SYNFlood struct {
	Victim int
	Syns   int
	At     int64
	Spread int64
}

// Emit implements Anomaly.
func (a SYNFlood) Emit(rng *rand.Rand, duration int64, out []packet.Packet) []packet.Packet {
	for i := 0; i < a.Syns; i++ {
		key := packet.FlowKey{
			SrcIP:   hostIP(rng.Intn(1 << 23)),
			DstIP:   actorIP(a.Victim),
			SrcPort: uint16(1024 + rng.Intn(64000)),
			DstPort: 443,
			Proto:   packet.ProtoTCP,
		}
		t := clampTime(a.At-a.Spread/2+int64(rng.Float64()*float64(a.Spread)), duration)
		out = append(out, packet.Packet{Key: key, Size: 64, TCPFlags: packet.FlagSYN, Time: t})
	}
	return out
}

// CompletedFlows injects a host terminating an unusual number of TCP flows
// (FIN packets), exercising query Q6.
type CompletedFlows struct {
	Victim int
	Flows  int
	At     int64
	Spread int64
}

// Emit implements Anomaly.
func (a CompletedFlows) Emit(rng *rand.Rand, duration int64, out []packet.Packet) []packet.Packet {
	for i := 0; i < a.Flows; i++ {
		key := packet.FlowKey{
			SrcIP:   hostIP(rng.Intn(1 << 22)),
			DstIP:   actorIP(a.Victim),
			SrcPort: uint16(1024 + rng.Intn(64000)),
			DstPort: 80,
			Proto:   packet.ProtoTCP,
		}
		t := clampTime(a.At-a.Spread/2+int64(rng.Float64()*float64(a.Spread)), duration)
		out = append(out,
			packet.Packet{Key: key, Size: 400, TCPFlags: packet.FlagACK, Time: t},
			packet.Packet{Key: key, Size: 64, TCPFlags: packet.FlagFIN | packet.FlagACK, Seq: 1, Time: t + 2e5},
		)
	}
	return out
}

// Slowloris injects many long-lived, low-volume connections holding a web
// victim's sockets open (query Q7): high connection count, tiny byte count
// per connection.
type Slowloris struct {
	Victim int
	Conns  int
	At     int64
	Spread int64
	// Life is how long each connection trickles keep-alive bytes.
	Life int64
}

// Emit implements Anomaly.
func (a Slowloris) Emit(rng *rand.Rand, duration int64, out []packet.Packet) []packet.Packet {
	life := a.Life
	if life == 0 {
		life = a.Spread
	}
	for c := 0; c < a.Conns; c++ {
		key := packet.FlowKey{
			SrcIP:   actorIP(3000 + c/256),
			DstIP:   actorIP(a.Victim),
			SrcPort: uint16(1024 + rng.Intn(64000)),
			DstPort: 80,
			Proto:   packet.ProtoTCP,
		}
		start := clampTime(a.At-a.Spread/2+int64(rng.Float64()*float64(a.Spread)), duration)
		out = append(out, packet.Packet{Key: key, Size: 64, TCPFlags: packet.FlagSYN, Time: start})
		// Trickle of tiny header fragments keeping the connection open.
		for j := 1; j <= 4; j++ {
			t := clampTime(start+life*int64(j)/5, duration)
			out = append(out, packet.Packet{Key: key, Size: 70, TCPFlags: packet.FlagACK | packet.FlagPSH, Seq: uint32(j), Time: t})
		}
	}
	return out
}

// SuperSpreader injects one source contacting many distinct destination
// hosts (query Q8).
type SuperSpreader struct {
	Host   int
	Dsts   int
	At     int64
	Spread int64
}

// Emit implements Anomaly.
func (a SuperSpreader) Emit(rng *rand.Rand, duration int64, out []packet.Packet) []packet.Packet {
	for d := 0; d < a.Dsts; d++ {
		key := packet.FlowKey{
			SrcIP:   actorIP(4000 + a.Host),
			DstIP:   hostIP((d*2654435761 + 17) & 0x7FFFFF),
			SrcPort: uint16(1024 + rng.Intn(64000)),
			DstPort: wellKnownPort(rng),
			Proto:   packet.ProtoUDP,
		}
		t := clampTime(a.At-a.Spread/2+int64(rng.Float64()*float64(a.Spread)), duration)
		out = append(out, packet.Packet{Key: key, Size: 200, Time: t})
	}
	return out
}

// HeavyBurst injects a single heavy flow of Packets packets centered at At
// over Spread ns. Centering At on a tumbling-window boundary reproduces
// the paper's Figure 1: neither adjacent window sees the full burst, while
// a sliding window does.
type HeavyBurst struct {
	Key     packet.FlowKey
	Packets int
	At      int64
	Spread  int64
}

// Emit implements Anomaly.
func (a HeavyBurst) Emit(rng *rand.Rand, duration int64, out []packet.Packet) []packet.Packet {
	out = slices.Grow(out, a.Packets)
	for i := 0; i < a.Packets; i++ {
		var off int64
		if a.Packets > 1 {
			off = a.Spread * int64(i) / int64(a.Packets-1)
		}
		t := clampTime(a.At-a.Spread/2+off, duration)
		flags := uint8(packet.FlagACK)
		if a.Key.Proto != packet.ProtoTCP {
			flags = 0
		}
		out = append(out, packet.Packet{Key: a.Key, Size: 1200, TCPFlags: flags, Seq: uint32(i), Time: t})
	}
	return out
}

// BurstKey builds a deterministic 5-tuple for the i-th injected heavy flow.
func BurstKey(i int) packet.FlowKey {
	return packet.FlowKey{
		SrcIP:   actorIP(5000 + i),
		DstIP:   actorIP(6000 + i),
		SrcPort: uint16(10000 + i),
		DstPort: 443,
		Proto:   packet.ProtoTCP,
	}
}

func clampTime(t, duration int64) int64 {
	if t < 0 {
		return 0
	}
	if t >= duration {
		return duration - 1
	}
	return t
}
