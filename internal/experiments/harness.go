package experiments

import (
	"fmt"
	"time"

	"omniwindow"
	"omniwindow/internal/afr"
	"omniwindow/internal/baseline"
	"omniwindow/internal/metrics"
	"omniwindow/internal/packet"
	"omniwindow/internal/sketch"
	"omniwindow/internal/window"
)

// harness runs the window mechanisms the accuracy experiments compare —
// the ideal ITW/ISW, the conventional TW1/TW2, OmniWindow's OTW/OSW and
// the Sliding Sketch — over one trace, window and slide. Which rows an
// experiment prints, and which reference each row is scored against, stay
// with the experiment.
type harness struct {
	sc       Scale
	pkts     []packet.Packet
	duration int64
	subNs    int64
	// windowSub is the complete window in sub-windows; every sliding
	// mechanism advances by sc.SlideSub of them.
	windowSub int
	// eval is the exact per-window statistic the ideals compute.
	eval baseline.Eval
}

// newHarness compares the mechanisms over the scale's trace length and
// window.
func newHarness(sc Scale, pkts []packet.Packet, eval baseline.Eval) harness {
	return harness{sc: sc, pkts: pkts, duration: sc.Duration, subNs: sc.SubWindowNs, windowSub: sc.WindowSub, eval: eval}
}

func (h harness) windowNs() int64 { return h.subNs * int64(h.windowSub) }

// stepNs is how far consecutive windows lie apart: the slide for sliding
// mechanisms, the whole window for tumbling ones.
func (h harness) stepNs(sliding bool) int64 {
	if sliding {
		return h.subNs * int64(h.sc.SlideSub)
	}
	return h.windowNs()
}

// ideal runs ITW or ISW: the exact eval over every window position.
func (h harness) ideal(sliding bool) []baseline.WindowOutput {
	return baseline.RunIdeal(h.pkts, h.duration, h.windowNs(), h.stepNs(sliding), h.eval)
}

// tumbling runs TW1 and TW2 over full-window state: TW1's single region
// loses the traffic of the C&R blackout after each boundary, TW2's second
// region overlaps it. track is baseline.RunTumbling's key extractor.
func (h harness) tumbling(full baseline.AppFactory, track func(*packet.Packet) (packet.FlowKey, bool)) (tw1, tw2 []baseline.WindowOutput) {
	run := func(regions int) []baseline.WindowOutput {
		return baseline.RunTumbling(h.pkts, h.duration, baseline.TumblingConfig{
			WindowNs: h.windowNs(), Regions: regions, CRTimeNs: h.sc.TW1CRNs, Seed: uint64(h.sc.Seed),
		}, full, track)
	}
	return run(1), run(2)
}

// omni runs OTW or OSW: cfg deployed on the harness's sub-windows and
// plan, with the scale's flowkey tracker unless cfg sets its own. It
// returns the deployment after the run, for experiments that read its
// stats or controller, and the emitted windows.
func (h harness) omni(sliding bool, cfg omniwindow.Config) (*omniwindow.Deployment, []controllerWindow) {
	cfg.SubWindow = time.Duration(h.subNs)
	cfg.Plan = window.Tumbling(h.windowSub)
	if sliding {
		cfg.Plan = window.SlidingPlan(h.windowSub, h.sc.SlideSub)
	}
	if cfg.Tracker == (afr.TrackerConfig{}) {
		cfg.Tracker = trackerFor(h.sc)
	}
	d := deploy(cfg)
	return d, d.RunFor(h.pkts, h.duration)
}

// slidingSketch runs the Sliding Sketch baseline with a mem-byte budget:
// the same sketch at half width in each of its two buckets.
func (h harness) slidingSketch(mk sizedSketch, mem int) []baseline.WindowOutput {
	cur, _ := mk(mem/2, uint64(h.sc.Seed))
	prev, _ := mk(mem/2, uint64(h.sc.Seed))
	return baseline.RunSlidingSketch(h.pkts, h.duration, baseline.SlidingSketchConfig{
		WindowNs: h.windowNs(), SlideNs: h.stepNs(true),
	}, sketch.NewSliding(cur, prev))
}

// deploy is the package's one way to build a deployment. Every config
// here is fixed by the experiment, so an error is a bug and panics.
func deploy(cfg omniwindow.Config) *omniwindow.Deployment {
	d, err := omniwindow.New(cfg)
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	return d
}

// appConfig deploys app at mem bytes per sub-window, each region's
// instance seeded from the scale's seed.
func appConfig(sc Scale, kind afr.Kind, threshold uint64, mem int, app func(mem int, seed uint64) afr.StateApp) omniwindow.Config {
	return omniwindow.Config{
		Kind:      kind,
		Threshold: threshold,
		AppFactory: func(region int) afr.StateApp {
			return app(mem, uint64(sc.Seed)+uint64(region))
		},
		Slots: app(mem, 1).Slots(),
	}
}

// trackerFor sizes the flowkey tracker proportionally to the scale.
func trackerFor(sc Scale) afr.TrackerConfig {
	return afr.TrackerConfig{
		BufferKeys:  sc.SubSlots(),
		BloomBits:   sc.SubSlots() * 32,
		BloomHashes: 3,
	}
}

// exactPacketCounts is the exact per-flow packet count of one window: the
// ideal of every heavy-hitter and flow-count comparison.
func exactPacketCounts(win []packet.Packet) map[packet.FlowKey]uint64 {
	m := make(map[packet.FlowKey]uint64)
	for i := range win {
		m[win[i].Key]++
	}
	return m
}

// detectOutputs thresholds baseline window outputs.
func detectOutputs(outs []baseline.WindowOutput, threshold uint64) []map[packet.FlowKey]bool {
	res := make([]map[packet.FlowKey]bool, len(outs))
	for i, w := range outs {
		res[i] = w.Detect(threshold)
	}
	return res
}

// detectedSets converts deployment results to per-window detection sets.
func detectedSets(results []controllerWindow) []map[packet.FlowKey]bool {
	out := make([]map[packet.FlowKey]bool, len(results))
	for i, w := range results {
		out[i] = make(map[packet.FlowKey]bool, len(w.Detected))
		for _, k := range w.Detected {
			out[i][k] = true
		}
	}
	return out
}

// scoreWindows compares per-window detections against a same-shaped ideal.
func scoreWindows(got, ideal []map[packet.FlowKey]bool) metrics.Detection {
	var d metrics.Detection
	for i := range min(len(got), len(ideal)) {
		d.Add(metrics.Compare(got[i], ideal[i]))
	}
	return d
}

// unionDetections flattens per-window detections to the anomaly-event
// level (used for the ITW-vs-ISW comparison).
func unionDetections(ds []map[packet.FlowKey]bool) map[packet.FlowKey]bool {
	u := make(map[packet.FlowKey]bool)
	for _, d := range ds {
		for k := range d {
			u[k] = true
		}
	}
	return u
}

// meanARE is the mean per-window ARE of estimated values against an
// ideal's exact ones.
func meanARE(got []map[packet.FlowKey]uint64, ideal []baseline.WindowOutput) float64 {
	var ares []float64
	for i := range min(len(got), len(ideal)) {
		ares = append(ares, metrics.ARE(got[i], ideal[i].Values))
	}
	return metrics.Mean(ares)
}

// valuesOf extracts baseline outputs' per-window values.
func valuesOf(outs []baseline.WindowOutput) []map[packet.FlowKey]uint64 {
	vs := make([]map[packet.FlowKey]uint64, len(outs))
	for i := range outs {
		vs[i] = outs[i].Values
	}
	return vs
}
