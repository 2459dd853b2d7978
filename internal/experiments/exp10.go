package experiments

import (
	"fmt"

	"omniwindow/internal/afr"
	"omniwindow/internal/metrics"
	"omniwindow/internal/packet"
	"omniwindow/internal/trace"
)

// Exp10Row is one (mechanism, window size) accuracy point of Figure 15.
type Exp10Row struct {
	Mechanism string
	WindowNs  int64
	Precision float64
	Recall    float64
}

// Exp10Result is the Figure 15 reproduction: heavy-hitter accuracy with
// MV-Sketch as the user-desired window size grows from 0.5 s to 2 s.
// TW1/TW2 and Sliding Sketch allocate memory for a pre-defined 0.5 s
// window, so their accuracy degrades as the window grows; OmniWindow
// keeps measuring 100 ms sub-windows with fixed per-sub-window resources,
// so its accuracy is stable at any merged window size.
type Exp10Result struct {
	Rows []Exp10Row
}

// Table renders the sweep.
func (r Exp10Result) Table() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{row.Mechanism,
			fmt.Sprintf("%.1fs", float64(row.WindowNs)/1e9),
			pct(row.Precision), pct(row.Recall)})
	}
	return table([]string{"Mechanism", "Window", "Precision", "Recall"}, rows)
}

// Get returns the row for (mechanism, windowNs).
func (r Exp10Result) Get(mech string, windowNs int64) (Exp10Row, bool) {
	for _, row := range r.Rows {
		if row.Mechanism == mech && row.WindowNs == windowNs {
			return row, true
		}
	}
	return Exp10Row{}, false
}

// Exp10Trace builds a longer workload with heavy bursts sprinkled
// throughout, sized to the sweep's largest window.
func Exp10Trace(sc Scale, duration int64) []packet.Packet {
	cfg := trace.DefaultConfig(sc.Seed)
	cfg.Duration = duration
	cfg.Flows = int(int64(sc.Flows) * duration / sc.Duration)
	var anomalies []trace.Anomaly
	n := int(duration / (500 * Millisecond))
	for i := 0; i < n; i++ {
		at := int64(i)*500*Millisecond + 250*Millisecond
		if i%3 == 1 {
			at = int64(i+1) * 500 * Millisecond // boundary placement
		}
		anomalies = append(anomalies, trace.HeavyBurst{
			Key: trace.BurstKey(i), Packets: heavyThreshold * 3 / 2, At: at, Spread: 2 * sc.SubWindowNs,
		})
	}
	cfg.Anomalies = anomalies
	return trace.New(cfg).Generate()
}

// RunExp10 reproduces Exp#10 (Figure 15) for window sizes 0.5-2 s.
func RunExp10(sc Scale) Exp10Result {
	windowSizes := []int64{500 * Millisecond, 1000 * Millisecond, 1500 * Millisecond, 2000 * Millisecond}
	maxWin := windowSizes[len(windowSizes)-1]
	duration := 4 * maxWin
	pkts := Exp10Trace(sc, duration)

	// The conventional implementations size their sketch for the
	// PRE-DEFINED 0.5 s window and keep that allocation as the
	// user-desired window grows. The budget is deliberately tight (the
	// paper's 8 MB serves 213-440 K flows per window, a bucket load of
	// ~6-13): scaled to this trace's flow density.
	fixedMem := sc.SketchMemory / 8
	owMem := fixedMem / 4

	var res Exp10Result
	for _, winNs := range windowSizes {
		// Every size merges the same 100 ms sub-windows of the one trace.
		h := harness{sc: sc, pkts: pkts, duration: duration, subNs: sc.SubWindowNs,
			windowSub: int(winNs / sc.SubWindowNs), eval: exactPacketCounts}
		itw := detectOutputs(h.ideal(false), heavyThreshold)
		isw := detectOutputs(h.ideal(true), heavyThreshold)
		tw1, tw2 := h.tumbling(func(seed uint64) afr.StateApp { return mvSketch.app(fixedMem, seed) }, nil)
		cfg := appConfig(sc, afr.Frequency, heavyThreshold, owMem, mvSketch.app)
		_, otw := h.omni(false, cfg)
		_, osw := h.omni(true, cfg)
		// Sliding Sketch with the fixed 0.5 s-window allocation.
		ss := h.slidingSketch(mvSketch, fixedMem)

		mk := func(mech string, d metrics.Detection) Exp10Row {
			return Exp10Row{Mechanism: mech, WindowNs: winNs, Precision: d.Precision(), Recall: d.Recall()}
		}
		res.Rows = append(res.Rows,
			mk("ITW", metrics.Compare(unionDetections(itw), unionDetections(itw))),
			mk("TW1", scoreWindows(detectOutputs(tw1, heavyThreshold), itw)),
			mk("TW2", scoreWindows(detectOutputs(tw2, heavyThreshold), itw)),
			mk("OTW", scoreWindows(detectedSets(otw), itw)),
			mk("ISW", metrics.Compare(unionDetections(isw), unionDetections(isw))),
			mk("SS", scoreWindows(detectOutputs(ss, heavyThreshold), isw)),
			mk("OSW", scoreWindows(detectedSets(osw), isw)),
		)
	}
	return res
}
