package experiments

import (
	"fmt"
	"time"

	"omniwindow/internal/afr"
	"omniwindow/internal/baseline"
	"omniwindow/internal/packet"
	"omniwindow/internal/sketch"
)

// AblationMergeRow is one strategy of ablation A1.
type AblationMergeRow struct {
	Strategy  string
	Precision float64
	Recall    float64
}

// AblationMergeResult compares the three ways to merge sub-windows that
// §4.1 discusses: merging per-sub-window RESULTS (loses sub-threshold
// flows), merging sub-window sketch STATES (amplifies counter conflicts),
// and OmniWindow's AFR merging.
type AblationMergeResult struct {
	Rows []AblationMergeRow
}

// Table renders the comparison.
func (r AblationMergeResult) Table() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{row.Strategy, pct(row.Precision), pct(row.Recall)})
	}
	return table([]string{"Merge strategy", "Precision", "Recall"}, rows)
}

// RunAblationMerge evaluates heavy-hitter detection over merged tumbling
// windows with the three strategies, against the exact ideal.
func RunAblationMerge(sc Scale) AblationMergeResult {
	pkts := Exp2Trace(sc)
	subMem := sc.SubSketchMemory()
	nSub := int(sc.Duration / sc.SubWindowNs)

	// Per-sub-window CM sketches plus exact key sets (every strategy
	// gets the same per-sub-window information).
	sketches := make([]*sketch.CountMin, nSub)
	keys := make([]map[packet.FlowKey]bool, nSub)
	for i := range sketches {
		sketches[i] = sketch.NewCountMinBytes(4, subMem, uint64(sc.Seed))
		keys[i] = make(map[packet.FlowKey]bool)
	}
	for i := range pkts {
		swi := int(pkts[i].Time / sc.SubWindowNs)
		if swi < 0 || swi >= nSub {
			continue
		}
		sketches[swi].Update(pkts[i].Key, 1)
		keys[swi][pkts[i].Key] = true
	}

	ideal := detectOutputs(newHarness(sc, pkts, exactPacketCounts).ideal(false), heavyThreshold)

	spans := baseline.Spans(sc.Duration, sc.WindowNs(), sc.WindowNs())
	var resultMerge, stateMerge, afrMerge []map[packet.FlowKey]bool
	for _, sp := range spans {
		from := int(sp.Start / sc.SubWindowNs)
		to := int(sp.End / sc.SubWindowNs)
		if to > nSub {
			to = nSub
		}

		// Strategy 1: merge per-sub-window RESULTS — a flow must cross
		// the threshold within a single sub-window to be reported.
		rm := make(map[packet.FlowKey]bool)
		for i := from; i < to; i++ {
			for k := range keys[i] {
				if sketches[i].Query(k) >= heavyThreshold {
					rm[k] = true
				}
			}
		}
		resultMerge = append(resultMerge, rm)

		// Strategy 2: merge sub-window STATES, then query — counter
		// conflicts from every sub-window pile into one sketch.
		merged := sketch.NewCountMinBytes(4, subMem, uint64(sc.Seed))
		for i := from; i < to; i++ {
			merged.Merge(sketches[i])
		}
		sm := make(map[packet.FlowKey]bool)
		for i := from; i < to; i++ {
			for k := range keys[i] {
				if merged.Query(k) >= heavyThreshold {
					sm[k] = true
				}
			}
		}
		stateMerge = append(stateMerge, sm)

		// Strategy 3: AFRs — query each sub-window's sketch for its own
		// keys and sum the per-flow records.
		sums := make(map[packet.FlowKey]uint64)
		for i := from; i < to; i++ {
			for k := range keys[i] {
				sums[k] += sketches[i].Query(k)
			}
		}
		am := make(map[packet.FlowKey]bool)
		for k, v := range sums {
			if v >= heavyThreshold {
				am[k] = true
			}
		}
		afrMerge = append(afrMerge, am)
	}

	mk := func(name string, got []map[packet.FlowKey]bool) AblationMergeRow {
		d := scoreWindows(got, ideal)
		return AblationMergeRow{Strategy: name, Precision: d.Precision(), Recall: d.Recall()}
	}
	return AblationMergeResult{Rows: []AblationMergeRow{
		mk("merge-results", resultMerge),
		mk("merge-states", stateMerge),
		mk("AFR (OmniWindow)", afrMerge),
	}}
}

// AblationSALUResult compares SALU usage of the flat concatenated layout
// (one register spanning both regions, one SALU) against naive per-region
// registers (ablation A2, §6).
type AblationSALUResult struct {
	FlatSALUs    int
	PerRegion    int
	FlatSRAMKB   int
	PerRegionKB  int
	RegionsCount int
}

// Table renders the comparison.
func (r AblationSALUResult) Table() string {
	return table([]string{"Layout", "SALUs", "SRAM(KB)"}, [][]string{
		{"flat (OmniWindow)", fmt.Sprintf("%d", r.FlatSALUs), fmt.Sprintf("%d", r.FlatSRAMKB)},
		{fmt.Sprintf("per-region x%d", r.RegionsCount), fmt.Sprintf("%d", r.PerRegion), fmt.Sprintf("%d", r.PerRegionKB)},
	})
}

// RunAblationSALU builds both layouts for a 4-row sketch over `regions`
// regions and reports the SALU bill.
func RunAblationSALU(rows, slots, regions int) AblationSALUResult {
	flat := newLedgerProbe()
	for r := 0; r < rows; r++ {
		// One register holds all regions concatenated: one SALU.
		flat.book(slots*regions*8, 1)
	}
	naive := newLedgerProbe()
	for r := 0; r < rows; r++ {
		for g := 0; g < regions; g++ {
			naive.book(slots*8, 1)
		}
	}
	return AblationSALUResult{
		FlatSALUs:    flat.salus,
		PerRegion:    naive.salus,
		FlatSRAMKB:   flat.kb,
		PerRegionKB:  naive.kb,
		RegionsCount: regions,
	}
}

type ledgerProbe struct{ salus, kb int }

func newLedgerProbe() *ledgerProbe { return &ledgerProbe{} }
func (l *ledgerProbe) book(bytes, salus int) {
	l.salus += salus
	l.kb += (bytes + 1023) / 1024
}

// AblationFlowkeyRow is one buffer size of ablation A3.
type AblationFlowkeyRow struct {
	BufferKeys  int
	Spills      int
	CollectTime time.Duration
}

// AblationFlowkeyResult sweeps the data-plane flowkey array size: small
// arrays spill more keys to the controller (bandwidth + injection time),
// large arrays cost switch SRAM (Algorithm 1's trade-off, also Exp#6's
// CPC vs DPC vs OW comparison).
type AblationFlowkeyResult struct {
	Rows []AblationFlowkeyRow
}

// Table renders the sweep.
func (r AblationFlowkeyResult) Table() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("%d", row.BufferKeys),
			fmt.Sprintf("%d", row.Spills),
			fmt.Sprintf("%.2fms", float64(row.CollectTime.Microseconds())/1e3),
		})
	}
	return table([]string{"fk_buffer keys", "Spilled keys", "Max C&R time"}, rows)
}

// RunAblationFlowkey sweeps the buffer size over a fixed workload.
func RunAblationFlowkey(sc Scale, bufferSizes []int) AblationFlowkeyResult {
	h := newHarness(sc, Exp2Trace(sc), nil)
	var res AblationFlowkeyResult
	for _, buf := range bufferSizes {
		cfg := appConfig(sc, afr.Frequency, heavyThreshold, sc.SubSketchMemory(), countMin.app)
		cfg.Tracker = afr.TrackerConfig{BufferKeys: buf, BloomBits: max(buf*32, 1<<16), BloomHashes: 3}
		d, _ := h.omni(false, cfg)
		st := d.Stats()
		res.Rows = append(res.Rows, AblationFlowkeyRow{
			BufferKeys:  buf,
			Spills:      st.Spills,
			CollectTime: st.MaxCollectVirtual,
		})
	}
	return res
}

// AblationSubWindowRow is one sub-window count of ablation A5.
type AblationSubWindowRow struct {
	SubWindows int
	Precision  float64
	Recall     float64
}

// AblationSubWindowResult sweeps how many sub-windows a 500 ms window is
// split into (with per-sub-window memory scaled to window/subwindows):
// more sub-windows mean finer window granularity but more frequent C&R.
type AblationSubWindowResult struct {
	Rows []AblationSubWindowRow
}

// Table renders the sweep.
func (r AblationSubWindowResult) Table() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{fmt.Sprintf("%d", row.SubWindows), pct(row.Precision), pct(row.Recall)})
	}
	return table([]string{"Sub-windows/window", "Precision", "Recall"}, rows)
}

// RunAblationSubWindows evaluates heavy hitters with W = 2, 5, 10
// sub-windows per window.
func RunAblationSubWindows(sc Scale, counts []int) AblationSubWindowResult {
	h := newHarness(sc, Exp2Trace(sc), exactPacketCounts)
	ideal := detectOutputs(h.ideal(false), heavyThreshold)

	var res AblationSubWindowResult
	for _, w := range counts {
		h.subNs, h.windowSub = sc.WindowNs()/int64(w), w
		mem := sc.SketchMemory * 5 / (4 * w) // window memory split with 25% headroom
		_, got := h.omni(false, appConfig(sc, afr.Frequency, heavyThreshold, mem, countMin.app))
		det := scoreWindows(detectedSets(got), ideal)
		res.Rows = append(res.Rows, AblationSubWindowRow{
			SubWindows: w, Precision: det.Precision(), Recall: det.Recall(),
		})
	}
	return res
}
