package experiments

import (
	"fmt"

	"omniwindow/internal/afr"
	"omniwindow/internal/baseline"
	"omniwindow/internal/metrics"
	"omniwindow/internal/packet"
	"omniwindow/internal/query"
	"omniwindow/internal/sketch"
	"omniwindow/internal/telemetry"
	"omniwindow/internal/trace"
)

// Exp#2 thresholds, scaled to the synthetic trace.
const (
	// Q8: a super-spreader contacts at least this many distinct hosts
	// per window.
	spreadThreshold = 120
	// Q9: a heavy hitter sends at least this many packets per window.
	heavyThreshold = 300
)

// Exp2Trace extends the Exp#1 workload with super-spreaders (Q8) and
// heavy-hitter bursts (Q9), again mixing mid-window, early-window and
// boundary placements.
func Exp2Trace(sc Scale) []packet.Packet {
	th := query.DefaultThresholds()
	anomalies := Exp1Anomalies(sc, th)
	w := sc.WindowNs()
	nWin := sc.Duration / w
	placements := []struct {
		at, spread int64
	}{
		{w / 2, sc.SubWindowNs},
		{w + sc.TW1CRNs/2, sc.TW1CRNs * 8 / 10},
		{w, 2 * sc.SubWindowNs},
	}
	if nWin > 2 {
		placements = append(placements, []struct{ at, spread int64 }{
			{(nWin-1)*w + w/2, sc.SubWindowNs},
			{2*w + sc.TW1CRNs/2, sc.TW1CRNs * 8 / 10},
			{(nWin - 1) * w, 2 * sc.SubWindowNs},
		}...)
	}
	for i, p := range placements {
		anomalies = append(anomalies,
			trace.SuperSpreader{Host: 700 + i, Dsts: spreadThreshold * 3 / 2, At: p.at, Spread: p.spread},
			trace.HeavyBurst{Key: trace.BurstKey(i), Packets: heavyThreshold * 3 / 2, At: p.at, Spread: p.spread},
		)
	}
	cfg := trace.DefaultConfig(sc.Seed)
	cfg.Duration = sc.Duration
	cfg.Flows = sc.Flows
	cfg.Anomalies = anomalies
	return trace.New(cfg).Generate()
}

// Exp2Row is one (task, sketch, mechanism) cell of Figure 8. For detection
// tasks (Q8, Q9) Precision/Recall are set; for estimation tasks (Q10, Q11)
// Err carries the ARE / AARE.
type Exp2Row struct {
	Task      string
	Sketch    string
	Mechanism string
	Precision float64
	Recall    float64
	Err       float64
	Metric    string // "pr" or "are" or "aare"
}

// Exp2Result is the Figure 8 reproduction.
type Exp2Result struct {
	Rows []Exp2Row
}

// Table renders the result.
func (r Exp2Result) Table() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		switch row.Metric {
		case "pr":
			rows = append(rows, []string{row.Task, row.Sketch, row.Mechanism,
				pct(row.Precision), pct(row.Recall), "-"})
		default:
			rows = append(rows, []string{row.Task, row.Sketch, row.Mechanism,
				"-", "-", fmt.Sprintf("%.4f", row.Err)})
		}
	}
	return table([]string{"Task", "Sketch", "Mechanism", "Precision", "Recall", "ARE/AARE"}, rows)
}

// Get returns the row for (task, sketch, mechanism).
func (r Exp2Result) Get(task, sk, mech string) (Exp2Row, bool) {
	for _, row := range r.Rows {
		if row.Task == task && row.Sketch == sk && row.Mechanism == mech {
			return row, true
		}
	}
	return Exp2Row{}, false
}

// RunExp2 reproduces Exp#2 (Figure 8): eight sketch algorithms under the
// six window settings plus the Sliding Sketch baseline.
func RunExp2(sc Scale) Exp2Result {
	pkts := Exp2Trace(sc)
	var res Exp2Result
	res.Rows = append(res.Rows, Exp2Spread(sc, pkts)...)
	res.Rows = append(res.Rows, Exp2Heavy(sc, pkts)...)
	res.Rows = append(res.Rows, Exp2Frequency(sc, pkts)...)
	res.Rows = append(res.Rows, Exp2Cardinality(sc, pkts)...)
	return res
}

// srcHostTrack aggregates by source host (Q8's key definition).
func srcHostTrack(p *packet.Packet) (packet.FlowKey, bool) {
	return p.Key.SrcHostKey(), true
}

// exactSpreadEval computes exact distinct destinations per source host.
func exactSpreadEval(win []packet.Packet) map[packet.FlowKey]uint64 {
	sets := make(map[packet.FlowKey]map[uint32]bool)
	for i := range win {
		src := win[i].Key.SrcHostKey()
		s, ok := sets[src]
		if !ok {
			s = make(map[uint32]bool)
			sets[src] = s
		}
		s[win[i].Key.DstIP] = true
	}
	out := make(map[packet.FlowKey]uint64, len(sets))
	for k, s := range sets {
		out[k] = uint64(len(s))
	}
	return out
}

// Exp2Spread runs Q8 with SpreadSketch and the Vector Bloom Filter.
func Exp2Spread(sc Scale, pkts []packet.Packet) []Exp2Row {
	vbfWidth := func(mem int) int { return max(mem/(5*8), 1) }
	backends := []struct {
		name    string
		app     func(mem int, seed uint64) afr.StateApp
		counter afr.DistinctCounter
	}{
		{"SPS", func(mem int, seed uint64) afr.StateApp {
			return telemetry.NewSpreadSketchApp(sketch.NewSpreadSketchBytes(4, mem, seed), max(mem/(4*sketch.SPSBucketBytes(4)), 1))
		}, nil},
		{"VBF", func(mem int, seed uint64) afr.StateApp {
			return telemetry.NewVBFApp(sketch.NewVBF(5, vbfWidth(mem), seed), vbfWidth(mem))
		}, sketch.VBFDistinctCounter},
	}

	h := newHarness(sc, pkts, exactSpreadEval)
	itw := detectOutputs(h.ideal(false), spreadThreshold)
	isw := detectOutputs(h.ideal(true), spreadThreshold)

	var rows []Exp2Row
	for _, be := range backends {
		tw1, tw2 := h.tumbling(func(seed uint64) afr.StateApp { return be.app(sc.SketchMemory, seed) }, srcHostTrack)
		cfg := appConfig(sc, afr.Distinction, spreadThreshold, sc.SubSketchMemory(), be.app)
		cfg.KeyOf, cfg.DistinctCounter = srcHostTrack, be.counter
		_, otw := h.omni(false, cfg)
		_, osw := h.omni(true, cfg)

		mk := func(mech string, d metrics.Detection) Exp2Row {
			return Exp2Row{Task: "Q8-superspreader", Sketch: be.name, Mechanism: mech,
				Precision: d.Precision(), Recall: d.Recall(), Metric: "pr"}
		}
		rows = append(rows,
			mk("ITW", metrics.Compare(unionDetections(itw), unionDetections(isw))),
			mk("ISW", metrics.Compare(unionDetections(isw), unionDetections(isw))),
			mk("TW1", scoreWindows(detectOutputs(tw1, spreadThreshold), itw)),
			mk("TW2", scoreWindows(detectOutputs(tw2, spreadThreshold), itw)),
			mk("OTW", scoreWindows(detectedSets(otw), itw)),
			mk("OSW", scoreWindows(detectedSets(osw), isw)),
		)
	}
	return rows
}

// Exp2Heavy runs Q9 with MV-Sketch and HashPipe.
func Exp2Heavy(sc Scale, pkts []packet.Packet) []Exp2Row {
	h := newHarness(sc, pkts, exactPacketCounts)
	itw := detectOutputs(h.ideal(false), heavyThreshold)
	isw := detectOutputs(h.ideal(true), heavyThreshold)

	var rows []Exp2Row
	for _, be := range []struct {
		name string
		mk   sizedSketch
	}{{"MV", mvSketch}, {"HP", hashPipe}} {
		tw1, tw2 := h.tumbling(func(seed uint64) afr.StateApp { return be.mk.app(sc.SketchMemory, seed) }, nil)
		cfg := appConfig(sc, afr.Frequency, heavyThreshold, sc.SubSketchMemory(), be.mk.app)
		_, otw := h.omni(false, cfg)
		_, osw := h.omni(true, cfg)
		ss := h.slidingSketch(be.mk, sc.SketchMemory)

		mk := func(mech string, d metrics.Detection) Exp2Row {
			return Exp2Row{Task: "Q9-heavyhitter", Sketch: be.name, Mechanism: mech,
				Precision: d.Precision(), Recall: d.Recall(), Metric: "pr"}
		}
		rows = append(rows,
			mk("ITW", metrics.Compare(unionDetections(itw), unionDetections(isw))),
			mk("ISW", metrics.Compare(unionDetections(isw), unionDetections(isw))),
			mk("TW1", scoreWindows(detectOutputs(tw1, heavyThreshold), itw)),
			mk("TW2", scoreWindows(detectOutputs(tw2, heavyThreshold), itw)),
			mk("OTW", scoreWindows(detectedSets(otw), itw)),
			mk("OSW", scoreWindows(detectedSets(osw), isw)),
			mk("SS", scoreWindows(detectOutputs(ss, heavyThreshold), isw)),
		)
	}
	return rows
}

// Exp2Frequency runs Q10 (per-flow packet counts, ARE) with Count-Min and
// SuMax, including the Sliding Sketch baseline.
func Exp2Frequency(sc Scale, pkts []packet.Packet) []Exp2Row {
	h := newHarness(sc, pkts, exactPacketCounts)
	itw, isw := h.ideal(false), h.ideal(true)

	var rows []Exp2Row
	for _, be := range []struct {
		name string
		mk   sizedSketch
	}{{"CM", countMin}, {"SM", suMax}} {
		tw1, tw2 := h.tumbling(func(seed uint64) afr.StateApp { return be.mk.app(sc.SketchMemory, seed) }, nil)
		// An estimation task: no detection, every window's values kept.
		cfg := appConfig(sc, afr.Frequency, ^uint64(0), sc.SubSketchMemory(), be.mk.app)
		cfg.CaptureValues = true
		owVals := func(sliding bool) []map[packet.FlowKey]uint64 {
			_, results := h.omni(sliding, cfg)
			vals := make([]map[packet.FlowKey]uint64, len(results))
			for i, w := range results {
				vals[i] = w.Values
			}
			return vals
		}

		mk := func(mech string, are float64) Exp2Row {
			return Exp2Row{Task: "Q10-flowcount", Sketch: be.name, Mechanism: mech, Err: are, Metric: "are"}
		}
		rows = append(rows,
			mk("TW1", meanARE(valuesOf(tw1), itw)),
			mk("TW2", meanARE(valuesOf(tw2), itw)),
			mk("OTW", meanARE(owVals(false), itw)),
			mk("OSW", meanARE(owVals(true), isw)),
			mk("SS", meanARE(valuesOf(h.slidingSketch(be.mk, sc.SketchMemory)), isw)),
		)
	}
	return rows
}

// Exp2Cardinality runs Q11 (window flow cardinality, AARE) with Linear
// Counting and HyperLogLog. These estimators have no per-flow AFRs: the
// per-sub-window instances migrate to the controller and merge losslessly
// (§8, merging intermediate data without AFRs).
func Exp2Cardinality(sc Scale, pkts []packet.Packet) []Exp2Row {
	backends := []struct {
		name string
		mk   func(mem int, seed uint64) telemetry.Cardinality
	}{
		{"LC", func(mem int, seed uint64) telemetry.Cardinality { return telemetry.NewLCCard(mem, seed) }},
		{"HLL", func(mem int, seed uint64) telemetry.Cardinality { return telemetry.NewHLLCard(mem, seed) }},
	}

	exactCount := func(start, end int64) float64 {
		set := make(map[packet.FlowKey]bool)
		for _, p := range baseline.Slice(pkts, start, end) {
			set[p.Key] = true
		}
		return float64(len(set))
	}

	var rows []Exp2Row
	for _, be := range backends {
		// Per-sub-window estimators (quarter memory) — OmniWindow's
		// state, shared by OTW and OSW which merge different ranges.
		nSub := int(sc.Duration / sc.SubWindowNs)
		subs := make([]telemetry.Cardinality, nSub)
		for i := range subs {
			subs[i] = be.mk(sc.SubSketchMemory(), uint64(sc.Seed))
		}
		for i := range pkts {
			swi := int(pkts[i].Time / sc.SubWindowNs)
			if swi >= 0 && swi < nSub {
				subs[swi].Insert(pkts[i].Key)
			}
		}
		mergeRange := func(from, to int) telemetry.Cardinality {
			acc := subs[from].Clone()
			for i := from; i < to; i++ {
				acc.Merge(subs[i])
			}
			return acc
		}

		// Full-window estimators for TW1/TW2.
		twEstimate := func(blackout int64) []float64 {
			var ests []float64
			for _, sp := range baseline.Spans(sc.Duration, sc.WindowNs(), sc.WindowNs()) {
				est := be.mk(sc.SketchMemory, uint64(sc.Seed))
				for _, p := range baseline.Slice(pkts, sp.Start, sp.End) {
					if blackout > 0 && sp.Start > 0 && p.Time < sp.Start+blackout {
						continue
					}
					est.Insert(p.Key)
				}
				ests = append(ests, est.Estimate())
			}
			return ests
		}

		aare := func(ests []float64, spans []baseline.Span) float64 {
			var errs []float64
			for i, sp := range spans {
				if i >= len(ests) {
					break
				}
				errs = append(errs, metrics.RelativeError(ests[i], exactCount(sp.Start, sp.End)))
			}
			return metrics.Mean(errs)
		}

		twSpans := baseline.Spans(sc.Duration, sc.WindowNs(), sc.WindowNs())
		slSpans := baseline.Spans(sc.Duration, sc.WindowNs(), sc.SlideNs())

		// OTW / OSW: merge the sub-window estimators per window span.
		owEsts := func(spans []baseline.Span) []float64 {
			var ests []float64
			for _, sp := range spans {
				from := int(sp.Start / sc.SubWindowNs)
				to := int(sp.End / sc.SubWindowNs)
				if to > nSub {
					to = nSub
				}
				ests = append(ests, mergeRange(from, to).Estimate())
			}
			return ests
		}

		// Sliding Sketch for cardinality: two half-memory buckets
		// rotating per window; an estimate merges both.
		ssEsts := func() []float64 {
			cur := be.mk(sc.SketchMemory/2, uint64(sc.Seed))
			prev := be.mk(sc.SketchMemory/2, uint64(sc.Seed))
			next := 0
			rot := int64(1)
			var ests []float64
			for _, sp := range slSpans {
				for next < len(pkts) && pkts[next].Time < sp.End {
					for pkts[next].Time >= rot*sc.WindowNs() {
						prev.Reset()
						prev, cur = cur, prev
						rot++
					}
					cur.Insert(pkts[next].Key)
					next++
				}
				u := cur.Clone()
				u.Merge(cur)
				u.Merge(prev)
				ests = append(ests, u.Estimate())
			}
			return ests
		}

		mk := func(mech string, v float64) Exp2Row {
			return Exp2Row{Task: "Q11-cardinality", Sketch: be.name, Mechanism: mech, Err: v, Metric: "aare"}
		}
		rows = append(rows,
			mk("TW1", aare(twEstimate(sc.TW1CRNs), twSpans)),
			mk("TW2", aare(twEstimate(0), twSpans)),
			mk("OTW", aare(owEsts(twSpans), twSpans)),
			mk("OSW", aare(owEsts(slSpans), slSpans)),
			mk("SS", aare(ssEsts(), slSpans)),
		)
	}
	return rows
}
