// networkwide runs OmniWindow's §5 consistency model across a small
// leaf-spine topology: three ingress leaf switches each take the flows a
// hash of the flow key assigns them, stamp every packet's sub-window at
// that first hop, and forward it over a link delay to one spine switch
// that adopts the stamp instead of consulting its own clock. Every switch
// runs the same heavy-hitter query.
//
// For each window the demo prints the leaves' merged view beside the
// spine's view and an omniscient per-flow count. Each count-min sketch
// over-counts, so the views are not equal; but the spine's sketch sees a
// superset of every leaf's traffic under the same hashes, in the same
// sub-windows, so per flow it must read spine >= leaves >= exact. A
// packet counted into the wrong window at either hop would break that.
//
// Run with:
//
//	go run ./examples/networkwide
package main

import (
	"fmt"
	"log"
	"sort"
	"time"

	"omniwindow"
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
	subWindow = 100 * trace.Millisecond
	duration  = 1000 * trace.Millisecond
	linkDelay = 40 * trace.Millisecond // most of a sub-window
)

// switchConfig is every switch's deployment. The sketch seeds depend on
// the memory region only, so all four switches hash a key alike.
func switchConfig() omniwindow.Config {
	return omniwindow.Config{
		SubWindow: time.Duration(subWindow),
		Plan:      omniwindow.Tumbling(5),
		Kind:      omniwindow.Frequency,
		Threshold: threshold,
		AppFactory: func(region int) omniwindow.StateApp {
			return telemetry.NewFrequencyApp(sketch.NewCountMin(4, slots, uint64(region+1)), slots)
		},
		Slots:         slots,
		CaptureValues: true,
	}
}

func newSwitch() *omniwindow.Deployment {
	d, err := omniwindow.New(switchConfig())
	if err != nil {
		log.Fatal(err)
	}
	return d
}

// ingress is the ECMP-style leaf assignment: each flow enters at one leaf.
func ingress(k packet.FlowKey) int { return hashing.Index(k, 0xECA9, leaves) }

func main() {
	cfg := trace.DefaultConfig(21)
	cfg.Flows = 6000
	cfg.Duration = duration
	cfg.Anomalies = []trace.Anomaly{
		trace.HeavyBurst{Key: trace.BurstKey(0), Packets: 600, At: 250 * trace.Millisecond, Spread: 150 * trace.Millisecond},
		trace.HeavyBurst{Key: trace.BurstKey(1), Packets: 600, At: 700 * trace.Millisecond, Spread: 150 * trace.Millisecond},
	}
	pkts := trace.New(cfg).Generate()

	leaf := make([]*omniwindow.Deployment, leaves)
	for i := range leaf {
		leaf[i] = newSwitch()
	}
	spine := newSwitch()

	perLeaf := make([]int, leaves)
	for i := range pkts {
		in := ingress(pkts[i].Key)
		perLeaf[in]++
		for _, fwd := range leaf[in].ProcessAndForward(&pkts[i]) {
			fwd.Time += linkDelay
			spine.ProcessPacket(fwd)
		}
	}
	fmt.Printf("ingress distribution across %d leaves: %v; link delay %v\n\n",
		leaves, perLeaf, time.Duration(linkDelay))

	leafWindows := make([][]omniwindow.WindowResult, leaves)
	for i, d := range leaf {
		leafWindows[i] = d.RunFor(nil, duration)
	}
	spineWindows := spine.RunFor(nil, duration+linkDelay)

	violations := 0
	for w, sw := range spineWindows {
		merged := map[packet.FlowKey]uint64{}
		for i := range leafWindows {
			if w >= len(leafWindows[i]) || leafWindows[i][w].Start != sw.Start {
				log.Fatalf("leaf %d has no window [sub %d..%d]", i, sw.Start, sw.End)
			}
			for k, v := range leafWindows[i][w].Values {
				merged[k] += v
			}
		}
		exact := exactCounts(pkts, sw.Start, sw.End)
		bad := 0
		var sumLeaves, sumSpine, sumExact uint64
		for k, n := range exact {
			if merged[k] < n || sw.Values[k] < merged[k] {
				bad++
			}
			sumLeaves, sumSpine, sumExact = sumLeaves+merged[k], sumSpine+sw.Values[k], sumExact+n
		}
		violations += bad
		fmt.Printf("window [sub %d..%d]: %d flows, packets leaves=%d spine=%d exact=%d, lower-bound violations: %d\n",
			sw.Start, sw.End, len(exact), sumLeaves, sumSpine, sumExact, bad)
		detected := append([]packet.FlowKey(nil), sw.Detected...)
		sort.Slice(detected, func(i, j int) bool { return exact[detected[i]] > exact[detected[j]] })
		for _, k := range detected {
			fmt.Printf("  heavy: %-45s leaves=%d spine=%d exact=%d\n", k, merged[k], sw.Values[k], exact[k])
		}
	}
	if len(spineWindows) == 0 || violations > 0 {
		log.Fatalf("%d windows, %d flows break spine >= leaves >= exact", len(spineWindows), violations)
	}
	fmt.Println("every flow: spine >= leaves >= exact")
}

// exactCounts is the omniscient reference: per-flow packet counts over a
// window's time span. The leaves' clocks are true time, so a packet's
// stamp is the sub-window its timestamp falls in.
func exactCounts(pkts []packet.Packet, start, end uint64) map[packet.FlowKey]uint64 {
	exact := map[packet.FlowKey]uint64{}
	lo, hi := int64(start)*subWindow, int64(end+1)*subWindow
	for i := range pkts {
		if pkts[i].Time >= lo && pkts[i].Time < hi {
			exact[pkts[i].Key]++
		}
	}
	return exact
}
