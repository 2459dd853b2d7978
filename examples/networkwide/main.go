// networkwide runs OmniWindow across a small leaf fabric using the
// fabric package: three ingress leaf switches each deploy the same
// heavy-hitter app, every packet is measured once at its ingress leaf
// (the first-hop stamp decides its sub-window network-wide), and the
// fabric merges the three switches' windows into one network-wide view —
// which matches an omniscient single-switch ideal exactly.
//
// The second half of the demo reruns the same trace with leaf 1 on a
// reboot schedule: the fabric resyncs the wiped switch with epoch
// beacons, and every window whose coverage the failure touched comes
// back explicitly marked Degraded with the failed switch named and its
// coverage gap recorded — instead of silently undercounting.
//
// Run with:
//
//	go run ./examples/networkwide
package main

import (
	"flag"
	"fmt"
	"log"
	"sort"
	"time"

	"omniwindow"
	"omniwindow/internal/fabric"
	"omniwindow/internal/faults"
	"omniwindow/internal/hashing"
	"omniwindow/internal/packet"
	"omniwindow/internal/sketch"
	"omniwindow/internal/telemetry"
	"omniwindow/internal/trace"
)

const (
	leaves    = 3
	slots     = 4096
	threshold = 400
)

func leafConfig(id int) omniwindow.Config {
	return omniwindow.Config{
		SubWindow: 100 * time.Millisecond,
		Plan:      omniwindow.Tumbling(5),
		Kind:      omniwindow.Frequency,
		Threshold: threshold,
		AppFactory: func(region int) omniwindow.StateApp {
			return telemetry.NewFrequencyApp(sketch.NewCountMin(4, slots, uint64(id*10+region+1)), slots)
		},
		Slots:         slots,
		CaptureValues: true,
	}
}

func newFabric(scheds []*faults.SwitchSchedule, debugAddr string) *fabric.Fabric {
	cfg := fabric.Config{
		Switches: make([]fabric.SwitchConfig, leaves),
		// ECMP-style ingress assignment: each flow enters the fabric at
		// one leaf, chosen by a hash of its key, and is metered only
		// there.
		Route: func(p *packet.Packet) []int {
			return []int{hashing.Index(p.Key, 0xECA9, leaves)}
		},
		Beacons: true,
		// One aggregated observability endpoint for the whole fabric:
		// every leaf's metrics carry a switch label, and the lifecycle
		// trace interleaves all three. Empty disables.
		DebugAddr: debugAddr,
	}
	for i := range cfg.Switches {
		cfg.Switches[i].Config = leafConfig(i)
		if scheds != nil {
			cfg.Switches[i].Faults = scheds[i]
		}
	}
	f, err := fabric.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	return f
}

func main() {
	debugAddr := flag.String("debug", "", "serve the fabric-wide observability endpoint on this address; empty disables")
	flag.Parse()

	cfg := trace.DefaultConfig(21)
	cfg.Flows = 6000
	cfg.Duration = 1000 * trace.Millisecond
	cfg.Anomalies = []trace.Anomaly{
		trace.HeavyBurst{Key: trace.BurstKey(0), Packets: 600, At: 250 * trace.Millisecond, Spread: 150 * trace.Millisecond},
		trace.HeavyBurst{Key: trace.BurstKey(1), Packets: 600, At: 700 * trace.Millisecond, Spread: 150 * trace.Millisecond},
	}
	pkts := trace.New(cfg).Generate()

	perLeaf := make([]int, leaves)
	for i := range pkts {
		perLeaf[hashing.Index(pkts[i].Key, 0xECA9, leaves)]++
	}
	fmt.Printf("ingress distribution across %d leaves: %v\n\n", leaves, perLeaf)

	// Fault-free run: the fabric-wide merge matches an omniscient exact
	// reference.
	healthy := newFabric(nil, *debugAddr)
	if *debugAddr != "" {
		fmt.Printf("observability endpoint: %s/metrics\n", healthy.DebugURL())
		defer healthy.CloseDebug()
	}
	windows := healthy.Run(clone(pkts))
	for _, w := range windows {
		exact := exactCounts(pkts, w.Start, w.End)
		mismatches := 0
		for k, v := range w.Values {
			if exact[k] != 0 && v < exact[k] {
				mismatches++
			}
		}
		fmt.Printf("fabric window [sub %d..%d]: %d flows merged, undercounts vs omniscient: %d\n",
			w.Start, w.End, len(w.Values), mismatches)
		detected := append([]packet.FlowKey(nil), w.Detected...)
		sort.Slice(detected, func(i, j int) bool {
			return w.Values[detected[i]] > w.Values[detected[j]]
		})
		for _, k := range detected {
			fmt.Printf("  heavy: %-45s fabric=%d exact=%d\n", k, w.Values[k], exact[k])
		}
	}

	// Chaos run: leaf 1 reboots at sub-window boundary 3, wiping its
	// counter, registers and epoch. Its in-flight data is lost, but the
	// fabric charges the loss to the affected windows instead of hiding
	// it, and an epoch beacon resyncs the switch at the next boundary.
	fmt.Println("\n--- rerun with leaf 1 rebooting at sub-window 3 ---")
	scheds := make([]*faults.SwitchSchedule, leaves)
	scheds[1] = &faults.SwitchSchedule{Reboot: faults.Fault{Fixed: []uint64{3}}}
	chaos := newFabric(scheds, "")
	for _, w := range chaos.Run(clone(pkts)) {
		status := "exact"
		if w.Degraded {
			status = fmt.Sprintf("DEGRADED (switches %v, gaps %v)", w.DegradedSwitches, w.Gaps)
		}
		fmt.Printf("fabric window [sub %d..%d]: %d flows, %s\n",
			w.Start, w.End, len(w.Values), status)
	}
	fmt.Printf("leaf 1 reboots: %d, epoch after resync: %d, coverage gaps: %v\n",
		chaos.Node(1).Stats().Reboots, chaos.Node(1).Epoch(), chaos.Gaps(1))
	if v := chaos.Violations(); len(v) > 0 {
		fmt.Printf("consistency violations: %v\n", v)
	} else {
		fmt.Println("consistency violations: none (no stale-epoch stamp was ever monitored)")
	}
}

func clone(pkts []packet.Packet) []packet.Packet {
	out := make([]packet.Packet, len(pkts))
	copy(out, pkts)
	return out
}

// exactCounts is the omniscient reference: per-flow packet counts over a
// window's time span.
func exactCounts(pkts []packet.Packet, start, end uint64) map[packet.FlowKey]uint64 {
	exact := map[packet.FlowKey]uint64{}
	lo := int64(start) * 100 * trace.Millisecond
	hi := int64(end+1) * 100 * trace.Millisecond
	for i := range pkts {
		if pkts[i].Time >= lo && pkts[i].Time < hi {
			exact[pkts[i].Key]++
		}
	}
	return exact
}
