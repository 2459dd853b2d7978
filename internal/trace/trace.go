// Package trace synthesizes data-center-like packet traces. The paper
// evaluates on a CAIDA 2018 anonymized trace, which is not redistributable;
// this generator substitutes a deterministic synthetic workload with the
// properties the evaluation depends on:
//
//   - heavy-tailed (Zipf) flow-size distribution, so sketches see both a
//     few very large flows and a long tail of mice;
//   - non-uniform arrival rate across the trace (the paper allocates 1/4
//     rather than 1/5 of window memory per sub-window because of this);
//   - bursts concentrated near window boundaries (the motivating Figure 1
//     scenario where tumbling windows miss heavy hitters);
//   - injected anomalies for each evaluated query: TCP-connection fan-out,
//     SSH brute force, port scans, DDoS, SYN floods, completed flows,
//     Slowloris, super-spreaders and heavy hitters.
//
// All randomness flows from one seed, so every experiment is reproducible.
package trace

import (
	"cmp"
	"math/rand"
	"slices"
	"time"

	"omniwindow/internal/packet"
)

// Millisecond is one virtual millisecond in trace timestamps.
const Millisecond = int64(time.Millisecond)

// Config parameterizes a synthetic trace.
type Config struct {
	// Seed drives all randomness. Equal configs generate equal traces.
	Seed int64
	// Duration is the trace length in virtual nanoseconds.
	Duration int64
	// Flows is the number of background 5-tuple flows.
	Flows int
	// ZipfS and ZipfV shape the flow-size Zipf distribution
	// (P(size=k) proportional to (ZipfV+k)^-ZipfS).
	ZipfS float64
	ZipfV float64
	// MaxFlowPackets caps the largest background flow.
	MaxFlowPackets int
	// Hosts is the size of the address pool for background traffic.
	Hosts int
	// BurstFraction is the fraction of background flows whose packets are
	// concentrated into a burst rather than spread across their lifetime.
	BurstFraction float64
	// RateWave adds a sinusoid-free two-phase rate modulation: flows
	// starting in the second half of the trace are RateWave times as
	// likely, producing the non-uniform arrival the paper observed.
	// 1 means uniform.
	RateWave float64
	// Anomalies are injected on top of the background traffic.
	Anomalies []Anomaly
}

// DefaultConfig returns a trace sized for the paper's window settings
// (500 ms windows of five 100 ms sub-windows) but scaled down to run in
// tests: roughly a few thousand background flows per sub-window.
func DefaultConfig(seed int64) Config {
	return Config{
		Seed:           seed,
		Duration:       2500 * Millisecond,
		Flows:          30000,
		ZipfS:          1.2,
		ZipfV:          1.0,
		MaxFlowPackets: 400,
		Hosts:          4096,
		BurstFraction:  0.25,
		RateWave:       1.5,
	}
}

// Anomaly is a traffic pattern injected into the trace. Emit appends its
// packets to out and returns the result; the generator merges and sorts
// everything.
type Anomaly interface {
	// Emit generates the anomaly's packets using the given RNG and
	// appends them to out.
	Emit(rng *rand.Rand, duration int64, out []packet.Packet) []packet.Packet
}

// Generator produces packets for a Config.
type Generator struct {
	cfg Config
}

// New returns a generator for cfg. Zero-value numeric fields are replaced
// by the DefaultConfig values so callers can override selectively.
func New(cfg Config) *Generator {
	def := DefaultConfig(cfg.Seed)
	if cfg.Duration == 0 {
		cfg.Duration = def.Duration
	}
	if cfg.Flows == 0 {
		cfg.Flows = def.Flows
	}
	if cfg.ZipfS == 0 {
		cfg.ZipfS = def.ZipfS
	}
	if cfg.ZipfV == 0 {
		cfg.ZipfV = def.ZipfV
	}
	if cfg.MaxFlowPackets == 0 {
		cfg.MaxFlowPackets = def.MaxFlowPackets
	}
	if cfg.Hosts == 0 {
		cfg.Hosts = def.Hosts
	}
	if cfg.BurstFraction == 0 {
		cfg.BurstFraction = def.BurstFraction
	}
	if cfg.RateWave == 0 {
		cfg.RateWave = def.RateWave
	}
	return &Generator{cfg: cfg}
}

// Config returns the effective (defaulted) configuration.
func (g *Generator) Config() Config { return g.cfg }

// hostIP deterministically maps a host index into the 10.0.0.0/8 pool.
func hostIP(i int) uint32 {
	return 0x0A000000 | uint32(i&0x00FFFFFF)
}

// randKey draws a background 5-tuple between two random pool hosts.
func randKey(rng *rand.Rand, hosts int) packet.FlowKey {
	src := rng.Intn(hosts)
	dst := rng.Intn(hosts)
	if dst == src {
		dst = (dst + 1) % hosts
	}
	proto := packet.ProtoTCP
	if rng.Float64() < 0.15 {
		proto = packet.ProtoUDP
	}
	return packet.FlowKey{
		SrcIP:   hostIP(src),
		DstIP:   hostIP(dst),
		SrcPort: uint16(1024 + rng.Intn(64000)),
		DstPort: wellKnownPort(rng),
		Proto:   proto,
	}
}

func wellKnownPort(rng *rand.Rand) uint16 {
	ports := []uint16{80, 443, 8080, 3306, 5432, 53, 123, 9000}
	if rng.Float64() < 0.7 {
		return ports[rng.Intn(len(ports))]
	}
	return uint16(1024 + rng.Intn(64000))
}

// chunkPackets is the size of the chunks Generate collects packets in
// before sortByTime gathers them into the trace. No chunk is copied to
// grow, so a trace costs about twice its size: the chunks, then the sorted
// copy (plus 16 bytes a packet for the sort).
const chunkPackets = 1 << 16

// Generate builds the full trace, sorted by timestamp.
func (g *Generator) Generate() []packet.Packet {
	rng := rand.New(rand.NewSource(g.cfg.Seed))
	zipf := rand.NewZipf(rng, g.cfg.ZipfS, g.cfg.ZipfV, uint64(g.cfg.MaxFlowPackets-1))

	var parts [][]packet.Packet
	var cur []packet.Packet
	room := func(n int) { // cur takes n more packets without growing
		if cap(cur)-len(cur) < n {
			if len(cur) > 0 {
				parts = append(parts, cur)
			}
			cur = make([]packet.Packet, 0, max(chunkPackets, n))
		}
	}
	for i := 0; i < g.cfg.Flows; i++ {
		key := randKey(rng, g.cfg.Hosts)
		n := int(zipf.Uint64()) + 1
		start := g.flowStart(rng)
		life := g.flowLife(rng, n)
		burst := rng.Float64() < g.cfg.BurstFraction
		room(n)
		cur = appendFlow(cur, rng, key, n, start, life, burst, g.cfg.Duration)
	}
	// An anomaly's size is known only once it is emitted: each is given
	// room for as many packets as the one before.
	last := 0
	for _, a := range g.cfg.Anomalies {
		room(last)
		n := len(cur)
		cur = a.Emit(rng, g.cfg.Duration, cur)
		last = len(cur) - n
	}
	return sortByTime(append(parts, cur)...)
}

// sortByTime returns the packets of parts, concatenated, ordered by
// timestamp exactly as sort.Slice(pkts, func(i, j int) bool { return
// pkts[i].Time < pkts[j].Time }) orders their concatenation pkts, ties
// included: pdqsort over (time, index) pairs makes the same comparisons
// and swaps, so it picks the same permutation, which then gathers the
// packets into a new slice. The pairs are 16 bytes and compared without
// reflection, where sort.Slice swaps whole packets through a reflective
// swapper; and the parts are never concatenated, so no packet is copied
// but into place.
func sortByTime(parts ...[]packet.Packet) []packet.Packet {
	type timed struct {
		t       int64
		part, i int32
	}
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	order := make([]timed, 0, n)
	for k, p := range parts {
		for i := range p {
			order = append(order, timed{p[i].Time, int32(k), int32(i)})
		}
	}
	slices.SortFunc(order, func(x, y timed) int { return cmp.Compare(x.t, y.t) })
	out := make([]packet.Packet, len(order))
	for i, o := range order {
		out[i] = parts[o.part][o.i]
	}
	return out
}

// flowStart draws a start time with the two-phase rate modulation.
func (g *Generator) flowStart(rng *rand.Rand) int64 {
	d := g.cfg.Duration
	w := g.cfg.RateWave
	// Probability mass: first half gets 1/(1+w), second half w/(1+w).
	if rng.Float64()*(1+w) < 1 {
		return int64(rng.Float64() * float64(d) / 2)
	}
	return d/2 + int64(rng.Float64()*float64(d)/2)
}

// flowLife draws a lifetime for a flow of n packets: mice live briefly,
// elephants persist.
func (g *Generator) flowLife(rng *rand.Rand, n int) int64 {
	base := 5*Millisecond + int64(rng.Float64()*50)*Millisecond
	return base + int64(n)*Millisecond/4
}

// appendFlow emits n packets of a flow over [start, start+life), clipped to
// the trace duration. Burst flows concentrate in the first tenth of life.
func appendFlow(dst []packet.Packet, rng *rand.Rand, key packet.FlowKey, n int, start, life int64, burst bool, duration int64, tcpOpts ...uint8) []packet.Packet {
	span := life
	if burst {
		span = life / 10
		if span == 0 {
			span = 1
		}
	}
	for j := 0; j < n; j++ {
		var off int64
		if n > 1 {
			off = int64(float64(span) * float64(j) / float64(n-1) * (0.9 + 0.2*rng.Float64()))
		}
		t := start + off
		if t >= duration {
			t = duration - 1
		}
		var flags uint8
		if key.Proto == packet.ProtoTCP {
			switch {
			case j == 0:
				flags = packet.FlagSYN
			case j == n-1 && n > 2:
				flags = packet.FlagFIN | packet.FlagACK
			default:
				flags = packet.FlagACK
				if rng.Float64() < 0.3 {
					flags |= packet.FlagPSH
				}
			}
		}
		for _, o := range tcpOpts {
			flags |= o
		}
		dst = append(dst, packet.Packet{
			Key:      key,
			Size:     packetSize(rng),
			TCPFlags: flags,
			Seq:      uint32(j),
			Time:     t,
		})
	}
	return dst
}

// packetSize draws a bimodal packet size (small ACK-ish vs near-MTU).
func packetSize(rng *rand.Rand) uint32 {
	if rng.Float64() < 0.45 {
		return uint32(64 + rng.Intn(200))
	}
	return uint32(1000 + rng.Intn(500))
}

// CountTruth computes exact per-flow packet counts over [from, to) — the
// error-free statistic ideal windows are judged against.
func CountTruth(pkts []packet.Packet, from, to int64) map[packet.FlowKey]uint64 {
	m := make(map[packet.FlowKey]uint64)
	for i := range pkts {
		if pkts[i].Time >= from && pkts[i].Time < to {
			m[pkts[i].Key]++
		}
	}
	return m
}

// ByteTruth computes exact per-flow byte counts over [from, to).
func ByteTruth(pkts []packet.Packet, from, to int64) map[packet.FlowKey]uint64 {
	m := make(map[packet.FlowKey]uint64)
	for i := range pkts {
		if pkts[i].Time >= from && pkts[i].Time < to {
			m[pkts[i].Key] += uint64(pkts[i].Size)
		}
	}
	return m
}
