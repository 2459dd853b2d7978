package trace

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"omniwindow/internal/packet"
)

func TestGenerateDeterministic(t *testing.T) {
	cfg := DefaultConfig(7)
	cfg.Flows = 2000
	a := New(cfg).Generate()
	b := New(cfg).Generate()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Key != b[i].Key || a[i].Time != b[i].Time || a[i].Size != b[i].Size ||
			a[i].TCPFlags != b[i].TCPFlags || a[i].Seq != b[i].Seq {
			t.Fatalf("packet %d differs", i)
		}
	}
}

// TestSortByTimeMatchesSortSlice: Generate's sort must order packets
// exactly as sort.Slice by Time did, ties included, or every trace (and
// every figure computed from one) would move. Inputs are generated traces
// of several seeds with their timestamps coarsened to milliseconds, so
// ties are everywhere, then shuffled, and each packet's Seq names it; plus
// the shapes pdqsort treats specially: short, sorted, reversed, all equal.
// Each is handed over in two parts, as Generate hands over its background
// flows and its anomalies.
func TestSortByTimeMatchesSortSlice(t *testing.T) {
	check := func(name string, in []packet.Packet) {
		t.Helper()
		for i := range in {
			in[i].Seq = uint32(i)
		}
		want := append([]packet.Packet(nil), in...)
		sort.Slice(want, func(i, j int) bool { return want[i].Time < want[j].Time })
		got := sortByTime(in[:len(in)*3/4], in[len(in)*3/4:])
		for i := range want {
			if got[i].Seq != want[i].Seq {
				t.Fatalf("%s: position %d holds packet %d, sort.Slice put packet %d there", name, i, got[i].Seq, want[i].Seq)
			}
		}
	}
	for _, seed := range []int64{1, 2, 7, 42} {
		cfg := DefaultConfig(seed)
		cfg.Flows = 3000
		pkts := New(cfg).Generate()
		rng := rand.New(rand.NewSource(seed))
		rng.Shuffle(len(pkts), func(i, j int) { pkts[i], pkts[j] = pkts[j], pkts[i] })
		for i := range pkts {
			pkts[i].Time /= Millisecond
		}
		check(fmt.Sprintf("seed %d", seed), pkts)
	}
	shapes := map[string]func(i, n int) int64{
		"sorted":   func(i, n int) int64 { return int64(i / 3) },
		"reversed": func(i, n int) int64 { return int64((n - i) / 3) },
		"equal":    func(i, n int) int64 { return 5 },
	}
	for name, at := range shapes {
		for _, n := range []int{0, 1, 11, 13, 200, 5000} {
			pkts := make([]packet.Packet, n)
			for i := range pkts {
				pkts[i].Time = at(i, n)
			}
			check(fmt.Sprintf("%s/%d", name, n), pkts)
		}
	}
}

func TestGenerateSortedAndBounded(t *testing.T) {
	cfg := DefaultConfig(3)
	cfg.Flows = 3000
	pkts := New(cfg).Generate()
	if len(pkts) < cfg.Flows {
		t.Fatalf("too few packets: %d", len(pkts))
	}
	if !sort.SliceIsSorted(pkts, func(i, j int) bool { return pkts[i].Time < pkts[j].Time }) {
		t.Fatal("trace not sorted by time")
	}
	for i := range pkts {
		if pkts[i].Time < 0 || pkts[i].Time >= cfg.Duration {
			t.Fatalf("packet %d time %d outside [0,%d)", i, pkts[i].Time, cfg.Duration)
		}
		if pkts[i].Size == 0 {
			t.Fatalf("packet %d has zero size", i)
		}
	}
}

func TestDefaultsAppliedToZeroConfig(t *testing.T) {
	g := New(Config{Seed: 1})
	cfg := g.Config()
	if cfg.Duration == 0 || cfg.Flows == 0 || cfg.Hosts == 0 || cfg.MaxFlowPackets == 0 {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
}

func TestHeavyTail(t *testing.T) {
	cfg := DefaultConfig(5)
	cfg.Flows = 5000
	pkts := New(cfg).Generate()
	counts := CountTruth(pkts, 0, cfg.Duration)
	var max, total uint64
	for _, c := range counts {
		total += c
		if c > max {
			max = c
		}
	}
	mean := float64(total) / float64(len(counts))
	if float64(max) < 10*mean {
		t.Fatalf("distribution not heavy-tailed: max=%d mean=%.1f", max, mean)
	}
}

func TestRateWaveSkewsSecondHalf(t *testing.T) {
	cfg := DefaultConfig(11)
	cfg.Flows = 8000
	cfg.RateWave = 3
	cfg.BurstFraction = 0.01
	pkts := New(cfg).Generate()
	var first, second int
	for i := range pkts {
		if pkts[i].Time < cfg.Duration/2 {
			first++
		} else {
			second++
		}
	}
	if second <= first {
		t.Fatalf("rate wave had no effect: first=%d second=%d", first, second)
	}
}

func TestTCPFlagsWellFormed(t *testing.T) {
	cfg := DefaultConfig(13)
	cfg.Flows = 1500
	pkts := New(cfg).Generate()
	perFlowFirst := map[packet.FlowKey]packet.Packet{}
	for i := range pkts {
		p := pkts[i]
		if p.Key.Proto != packet.ProtoTCP {
			continue
		}
		if cur, ok := perFlowFirst[p.Key]; !ok || p.Seq < cur.Seq {
			perFlowFirst[p.Key] = p
		}
	}
	syn := 0
	for _, p := range perFlowFirst {
		if p.HasFlags(packet.FlagSYN) {
			syn++
		}
	}
	if syn < len(perFlowFirst)*9/10 {
		t.Fatalf("expected SYN on nearly all first TCP packets: %d/%d", syn, len(perFlowFirst))
	}
}

func TestHeavyBurstStraddlesBoundary(t *testing.T) {
	boundary := 500 * Millisecond
	a := HeavyBurst{Key: BurstKey(0), Packets: 200, At: boundary, Spread: 100 * Millisecond}
	pkts := a.Emit(rand.New(rand.NewSource(1)), 2500*Millisecond)
	if len(pkts) != 200 {
		t.Fatalf("packets = %d", len(pkts))
	}
	var before, after int
	for i := range pkts {
		if pkts[i].Time < boundary {
			before++
		} else {
			after++
		}
	}
	if before == 0 || after == 0 {
		t.Fatalf("burst does not straddle boundary: before=%d after=%d", before, after)
	}
	// Roughly half on each side.
	if before < 60 || after < 60 {
		t.Fatalf("burst too lopsided: before=%d after=%d", before, after)
	}
}

func TestPortScanDistinctPorts(t *testing.T) {
	a := PortScan{Scanner: 1, Victim: 2, Ports: 150, At: 100 * Millisecond, Spread: 50 * Millisecond}
	pkts := a.Emit(rand.New(rand.NewSource(2)), 2500*Millisecond)
	ports := map[uint16]bool{}
	for i := range pkts {
		ports[pkts[i].Key.DstPort] = true
		if pkts[i].Key.DstIP != ActorIP(2) {
			t.Fatal("scan packet not aimed at victim")
		}
	}
	if len(ports) < 140 {
		t.Fatalf("too few distinct ports: %d", len(ports))
	}
}

func TestSuperSpreaderDistinctDsts(t *testing.T) {
	a := SuperSpreader{Host: 3, Dsts: 300, At: 100 * Millisecond, Spread: 80 * Millisecond}
	pkts := a.Emit(rand.New(rand.NewSource(3)), 2500*Millisecond)
	dsts := map[uint32]bool{}
	for i := range pkts {
		dsts[pkts[i].Key.DstIP] = true
	}
	if len(dsts) < 290 {
		t.Fatalf("too few distinct destinations: %d", len(dsts))
	}
}

func TestDDoSManySources(t *testing.T) {
	a := DDoS{Victim: 4, Sources: 120, PktsPerSource: 3, At: 100 * Millisecond, Spread: 80 * Millisecond}
	pkts := a.Emit(rand.New(rand.NewSource(4)), 2500*Millisecond)
	srcs := map[uint32]bool{}
	for i := range pkts {
		srcs[pkts[i].Key.SrcIP] = true
		if pkts[i].Key.DstIP != ActorIP(4) {
			t.Fatal("DDoS packet not aimed at victim")
		}
	}
	if len(srcs) != 120 {
		t.Fatalf("sources = %d want 120", len(srcs))
	}
	if len(pkts) != 360 {
		t.Fatalf("packets = %d want 360", len(pkts))
	}
}

func TestSYNFloodOnlySyns(t *testing.T) {
	a := SYNFlood{Victim: 5, Syns: 80, At: 100 * Millisecond, Spread: 30 * Millisecond}
	for _, p := range a.Emit(rand.New(rand.NewSource(5)), 2500*Millisecond) {
		if !p.HasFlags(packet.FlagSYN) || p.HasFlags(packet.FlagACK) {
			t.Fatalf("non-bare-SYN packet in flood: flags=%b", p.TCPFlags)
		}
	}
}

func TestSlowlorisLowVolumeLongLife(t *testing.T) {
	a := Slowloris{Victim: 6, Conns: 50, At: 200 * Millisecond, Spread: 50 * Millisecond, Life: 400 * Millisecond}
	pkts := a.Emit(rand.New(rand.NewSource(6)), 2500*Millisecond)
	bytesPerConn := map[packet.FlowKey]uint64{}
	lastSeen := map[packet.FlowKey]int64{}
	firstSeen := map[packet.FlowKey]int64{}
	for i := range pkts {
		p := pkts[i]
		bytesPerConn[p.Key] += uint64(p.Size)
		if _, ok := firstSeen[p.Key]; !ok || p.Time < firstSeen[p.Key] {
			firstSeen[p.Key] = p.Time
		}
		if p.Time > lastSeen[p.Key] {
			lastSeen[p.Key] = p.Time
		}
	}
	if len(bytesPerConn) != 50 {
		t.Fatalf("connections = %d", len(bytesPerConn))
	}
	for k, b := range bytesPerConn {
		if b > 1000 {
			t.Fatalf("slowloris conn %v sent too many bytes: %d", k, b)
		}
		if lastSeen[k]-firstSeen[k] < 200*Millisecond {
			t.Fatalf("slowloris conn %v too short-lived", k)
		}
	}
}

func TestCompletedFlowsHaveFIN(t *testing.T) {
	a := CompletedFlows{Victim: 7, Flows: 40, At: 100 * Millisecond, Spread: 40 * Millisecond}
	pkts := a.Emit(rand.New(rand.NewSource(7)), 2500*Millisecond)
	fins := 0
	for i := range pkts {
		if pkts[i].HasFlags(packet.FlagFIN) {
			fins++
		}
	}
	if fins != 40 {
		t.Fatalf("FIN packets = %d want 40", fins)
	}
}

func TestSSHBruteForceTargetsPort22(t *testing.T) {
	a := SSHBruteForce{Victim: 8, Sources: 4, Attempts: 25, At: 100 * Millisecond, Spread: 60 * Millisecond}
	pkts := a.Emit(rand.New(rand.NewSource(8)), 2500*Millisecond)
	flows := map[packet.FlowKey]bool{}
	for i := range pkts {
		if pkts[i].Key.DstPort != 22 {
			t.Fatal("brute-force packet not to port 22")
		}
		flows[pkts[i].Key] = true
	}
	if len(flows) != 100 {
		t.Fatalf("attempt flows = %d want 100", len(flows))
	}
}

func TestTCPFanoutDistinctConnections(t *testing.T) {
	a := TCPFanout{Host: 9, Conns: 60, At: 100 * Millisecond, Spread: 40 * Millisecond}
	pkts := a.Emit(rand.New(rand.NewSource(9)), 2500*Millisecond)
	conns := map[packet.FlowKey]bool{}
	for i := range pkts {
		conns[pkts[i].Key] = true
	}
	if len(conns) != 60 {
		t.Fatalf("connections = %d want 60", len(conns))
	}
}

func TestTruthHelpers(t *testing.T) {
	k := BurstKey(1)
	pkts := []packet.Packet{
		{Key: k, Size: 100, Time: 10},
		{Key: k, Size: 200, Time: 20},
		{Key: k, Size: 300, Time: 30},
	}
	c := CountTruth(pkts, 0, 25)
	if c[k] != 2 {
		t.Fatalf("CountTruth = %d", c[k])
	}
	b := ByteTruth(pkts, 15, 35)
	if b[k] != 500 {
		t.Fatalf("ByteTruth = %d", b[k])
	}
}

func TestClampTime(t *testing.T) {
	if clampTime(-5, 100) != 0 {
		t.Fatal("negative not clamped")
	}
	if clampTime(100, 100) != 99 {
		t.Fatal("duration not clamped to last tick")
	}
	if clampTime(50, 100) != 50 {
		t.Fatal("in-range value altered")
	}
}
