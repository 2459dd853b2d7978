package main

import (
	"time"

	"omniwindow"
	"omniwindow/internal/packet"
	"omniwindow/internal/sketch"
	"omniwindow/internal/telemetry"
	"omniwindow/internal/trace"
)

// Settings every workload shares: the paper's 100 ms sub-window and 500 ms
// window, a Count-Min of 4 rows in 256 KiB per region, everything else in
// omniwindow.Config at its default.
const (
	subWindow   = 100 * time.Millisecond
	windowSize  = 5
	sketchRows  = 4
	sketchBytes = 256 << 10
)

// workload is one row of the workload table: the trace it replays and the
// deployment fields in which it differs from the others. -seed is the only
// other input to trace generation.
type workload struct {
	Name string
	Why  string

	// Trace: Flows background flows of at most MaxFlowPackets packets
	// (default Zipf), plus HeavyFlows persistent flows of HeavyPackets
	// packets spread evenly over the whole trace, over SubWindows
	// sub-windows.
	Flows, MaxFlowPackets    int
	HeavyFlows, HeavyPackets int
	SubWindows               int

	// Deployment.
	Plan      omniwindow.Plan
	Threshold uint64
	RDMA      bool
	Durable   bool
}

// churn is the trace and plan the three flow_churn workloads share, so that
// their window streams can be compared byte for byte.
var churn = workload{
	Flows: 390_000, MaxFlowPackets: 4, HeavyFlows: 2048, HeavyPackets: 60, SubWindows: 15,
	Plan: omniwindow.Sliding(windowSize, 1), Threshold: 15,
}

func churnVariant(name, why string, rdma, durable bool) workload {
	w := churn
	w.Name, w.Why, w.RDMA, w.Durable = name, why, rdma, durable
	return w
}

var workloads = []workload{
	{
		Name:  "pkt_heavy",
		Why:   "few flows, many packets, tumbling plan: the per-packet path (switch pass, window stamp, AFR update, sketch) is ~90% of wall; the controller is nearly idle",
		Flows: 24_000, MaxFlowPackets: 400, HeavyFlows: 256, HeavyPackets: 1200, SubWindows: 15,
		Plan: omniwindow.Tumbling(windowSize), Threshold: 300,
	},
	churnVariant("flow_churn",
		"~31K flows per sub-window overflow the 32K flowkey array, sliding plan: AFR enumeration, spill injection, Receive and O2-O5 finish are over half of wall",
		false, false),
	churnVariant("flow_churn_rdma",
		"flow_churn's trace over the RDMA collection transport (Send/Drain + batched IngestAFRs): a transport change shows here and nowhere else",
		true, false),
	churnVariant("flow_churn_durable",
		"flow_churn's trace with WAL appends and a checkpoint at every boundary on a real directory: writes beside reads",
		false, true),
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

func (w workload) duration() int64 { return int64(w.SubWindows) * int64(subWindow) }

// generate builds the workload's trace from the seed.
func (w workload) generate(seed int64) []packet.Packet {
	cfg := trace.Config{
		Seed: seed, Duration: w.duration(), Flows: w.Flows, MaxFlowPackets: w.MaxFlowPackets,
	}
	for i := 0; i < w.HeavyFlows; i++ {
		cfg.Anomalies = append(cfg.Anomalies, trace.HeavyBurst{
			Key: trace.BurstKey(i), Packets: w.HeavyPackets, At: cfg.Duration / 2, Spread: cfg.Duration,
		})
	}
	return trace.New(cfg).Generate()
}

// record is one trace packet reduced to the fields the generator fills in.
// The trace is held as records because they have no pointers: the garbage
// collector then never scans the benchmark's input, which it would
// otherwise do on every cycle and charge to the program under test.
type record struct {
	Key      packet.FlowKey
	Time     int64
	Size     uint32
	Seq      uint32
	TCPFlags uint8
}

func compact(pkts []packet.Packet) []record {
	recs := make([]record, len(pkts))
	for i := range pkts {
		p := &pkts[i]
		recs[i] = record{Key: p.Key, Time: p.Time, Size: p.Size, Seq: p.Seq, TCPFlags: p.TCPFlags}
	}
	return recs
}

// packet is the generated packet the record was made from.
func (r *record) packet() packet.Packet {
	return packet.Packet{Key: r.Key, Time: r.Time, Size: r.Size, Seq: r.Seq, TCPFlags: r.TCPFlags}
}

// sketchWidth is the Count-Min row width sketchBytes buys.
var sketchWidth = sketch.NewCountMinBytes(sketchRows, sketchBytes, 1).Width()

func newApp(region int) omniwindow.StateApp {
	return telemetry.NewFrequencyApp(sketch.NewCountMinBytes(sketchRows, sketchBytes, uint64(region+1)), sketchWidth)
}

// config returns the workload's deployment configuration, but for the
// checkpoint directory of a durable workload, which replay makes afresh
// each time. The collection fan-out and the RDMA address table are spelled
// out at the values omniwindow.New would fill in, so that the layer ladder,
// which assembles the layers itself, reads the deployment's numbers here
// instead of repeating them.
func (w workload) config() omniwindow.Config {
	cfg := omniwindow.Config{
		SubWindow:         subWindow,
		Plan:              w.Plan,
		Kind:              omniwindow.Frequency,
		Threshold:         w.Threshold,
		AppFactory:        newApp,
		Slots:             sketchWidth,
		CollectionPackets: 3,
		RDMA:              w.RDMA,
		AddressMATSize:    4096,
		HotThreshold:      3,
	}
	if w.RDMA {
		cfg.CollectionPackets = 16
	}
	return cfg
}

// reference is the deployment whose window stream w's must equal byte for
// byte: the same trace and plan over the packet path with no durability.
// The plain workloads have none.
func (w workload) reference() (workload, bool) {
	if !w.RDMA && !w.Durable {
		return workload{}, false
	}
	w.RDMA, w.Durable = false, false
	return w, true
}

// windowSpan is one window the plan should emit, as inclusive sub-window
// numbers.
type windowSpan struct{ Start, End uint64 }

// expectedWindows lists the windows a replay of the whole trace must emit,
// in emission order.
func (w workload) expectedWindows() []windowSpan {
	var out []windowSpan
	for sw := uint64(0); sw < uint64(w.SubWindows); sw++ {
		if start, ok := w.Plan.Ends(sw); ok {
			out = append(out, windowSpan{start, sw})
		}
	}
	return out
}
