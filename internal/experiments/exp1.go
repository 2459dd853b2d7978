package experiments

import (
	"omniwindow"
	"omniwindow/internal/afr"
	"omniwindow/internal/metrics"
	"omniwindow/internal/packet"
	"omniwindow/internal/query"
	"omniwindow/internal/trace"
)

// Exp1Anomalies injects six instances of every evaluated anomaly type:
// three centered mid-window and three straddling tumbling-window
// boundaries (the Figure 1 scenario). Each instance is sized ~1.5x its
// query's detection threshold, so a boundary instance split across two
// tumbling windows falls below threshold in both.
func Exp1Anomalies(sc Scale, th query.Thresholds) []trace.Anomaly {
	w := sc.WindowNs()
	nWin := sc.Duration / w
	// Three placements, derived from the trace length:
	//   mid    — concentrated inside one window (every mechanism sees it);
	//   early  — right after a boundary, inside TW1's C&R blackout
	//            (TW1 loses it; everything else sees it);
	//   bound  — straddling a boundary (tumbling windows split it below
	//            threshold; sliding windows see it whole — Figure 1).
	mids := []int64{w / 2}
	earlies := []int64{w + sc.TW1CRNs/2}
	bounds := []int64{w}
	if nWin > 2 {
		mids = append(mids, (nWin-1)*w+w/2)
		earlies = append(earlies, 2*w+sc.TW1CRNs/2)
		bounds = append(bounds, (nWin-1)*w)
	}
	midSpread := sc.SubWindowNs
	earlySpread := sc.TW1CRNs * 8 / 10
	boundSpread := 2 * sc.SubWindowNs

	var out []trace.Anomaly
	inst := 0
	add := func(mk func(victim int, at, spread int64) trace.Anomaly) {
		for _, at := range mids {
			out = append(out, mk(inst, at, midSpread))
			inst++
		}
		for _, at := range earlies {
			out = append(out, mk(inst, at, earlySpread))
			inst++
		}
		for _, at := range bounds {
			out = append(out, mk(inst, at, boundSpread))
			inst++
		}
	}
	scale := func(thr uint64) int { return int(thr * 3 / 2) }

	// Q1: TCP connection fan-out.
	add(func(v int, at, spread int64) trace.Anomaly {
		return trace.TCPFanout{Host: v, Conns: scale(th.NewConns), At: at, Spread: spread}
	})
	// Q2: SSH brute force (four sources splitting the attempts).
	add(func(v int, at, spread int64) trace.Anomaly {
		return trace.SSHBruteForce{Victim: 100 + v, Sources: 4, Attempts: scale(th.SSHAttempts) / 4, At: at, Spread: spread}
	})
	// Q3: port scan.
	add(func(v int, at, spread int64) trace.Anomaly {
		return trace.PortScan{Scanner: v, Victim: 200 + v, Ports: scale(th.ScanPorts), At: at, Spread: spread}
	})
	// Q4: DDoS.
	add(func(v int, at, spread int64) trace.Anomaly {
		return trace.DDoS{Victim: 300 + v, Sources: scale(th.DDoSSources), PktsPerSource: 2, At: at, Spread: spread}
	})
	// Q5: SYN flood.
	add(func(v int, at, spread int64) trace.Anomaly {
		return trace.SYNFlood{Victim: 400 + v, Syns: scale(th.SynFlood), At: at, Spread: spread}
	})
	// Q6: completed flows.
	add(func(v int, at, spread int64) trace.Anomaly {
		return trace.CompletedFlows{Victim: 500 + v, Flows: scale(th.Completed), At: at, Spread: spread}
	})
	// Q7: Slowloris.
	add(func(v int, at, spread int64) trace.Anomaly {
		return trace.Slowloris{Victim: 600 + v, Conns: scale(th.SlowlorisCon), At: at, Spread: spread, Life: spread}
	})
	return out
}

// Exp1Trace builds the shared Exp#1/Exp#2 workload.
func Exp1Trace(sc Scale, th query.Thresholds) []packet.Packet {
	cfg := trace.DefaultConfig(sc.Seed)
	cfg.Duration = sc.Duration
	cfg.Flows = sc.Flows
	cfg.Anomalies = Exp1Anomalies(sc, th)
	return trace.New(cfg).Generate()
}

// Exp1Row is one (query, mechanism) accuracy cell of Figure 7.
type Exp1Row struct {
	Query     string
	Mechanism string
	Precision float64
	Recall    float64
}

// Exp1Result is the Figure 7 reproduction.
type Exp1Result struct {
	Rows []Exp1Row
}

// Table renders the result like the paper's figure.
func (r Exp1Result) Table() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{row.Query, row.Mechanism, pct(row.Precision), pct(row.Recall)})
	}
	return table([]string{"Query", "Mechanism", "Precision", "Recall"}, rows)
}

// Get returns the row for (query, mechanism).
func (r Exp1Result) Get(q, mech string) (Exp1Row, bool) {
	for _, row := range r.Rows {
		if row.Query == q && row.Mechanism == mech {
			return row, true
		}
	}
	return Exp1Row{}, false
}

// RunExp1 reproduces Exp#1 (Figure 7): Q1-Q7 under ITW, ISW, TW1, TW2,
// OTW and OSW. Tumbling mechanisms are scored per window against ITW;
// sliding ones against ISW; the ITW row itself is scored at the
// anomaly-event level against ISW (the paper's "tumbling windows miss
// boundary anomalies" comparison).
func RunExp1(sc Scale) Exp1Result {
	th := query.DefaultThresholds()
	pkts := Exp1Trace(sc, th)
	var res Exp1Result
	for _, q := range query.All(th) {
		rows := runExp1Query(sc, pkts, q)
		res.Rows = append(res.Rows, rows...)
	}
	return res
}

// RunExp1Query runs a single query (exported for focused tests).
func RunExp1Query(sc Scale, q *query.Query) []Exp1Row {
	return runExp1Query(sc, Exp1Trace(sc, query.DefaultThresholds()), q)
}

func runExp1Query(sc Scale, pkts []packet.Packet, q *query.Query) []Exp1Row {
	h := newHarness(sc, pkts, func(win []packet.Packet) map[packet.FlowKey]uint64 {
		e := query.NewExact(q)
		for i := range win {
			e.Update(&win[i])
		}
		return e.Counts()
	})
	// Ideal windows (error-free structures, offline).
	itw := detectOutputs(h.ideal(false), q.Threshold)
	isw := detectOutputs(h.ideal(true), q.Threshold)
	// Conventional tumbling baselines with full-window state.
	tw1, tw2 := h.tumbling(func(seed uint64) afr.StateApp {
		return query.NewState(q, sc.QuerySlots, sc.QuerySlots*16, seed)
	}, queryKey(q))
	// OmniWindow deployments with quarter-budget sub-window state.
	cfg := queryConfig(sc, q)
	_, otw := h.omni(false, cfg)
	_, osw := h.omni(true, cfg)

	mk := func(mech string, d metrics.Detection) Exp1Row {
		return Exp1Row{Query: q.Name, Mechanism: mech, Precision: d.Precision(), Recall: d.Recall()}
	}
	return []Exp1Row{
		mk("ITW", metrics.Compare(unionDetections(itw), unionDetections(isw))),
		mk("ISW", metrics.Compare(unionDetections(isw), unionDetections(isw))),
		mk("TW1", scoreWindows(detectOutputs(tw1, q.Threshold), itw)),
		mk("TW2", scoreWindows(detectOutputs(tw2, q.Threshold), itw)),
		mk("OTW", scoreWindows(detectedSets(otw), itw)),
		mk("OSW", scoreWindows(detectedSets(osw), isw)),
	}
}

// queryKey is the key a query aggregates by, for the packets it observes.
func queryKey(q *query.Query) func(*packet.Packet) (packet.FlowKey, bool) {
	return func(p *packet.Packet) (packet.FlowKey, bool) {
		if !q.Observes(p) {
			return packet.FlowKey{}, false
		}
		return q.Key(p), true
	}
}

// queryConfig deploys a query with quarter-budget sub-window state.
func queryConfig(sc Scale, q *query.Query) omniwindow.Config {
	return omniwindow.Config{
		Kind:      q.Kind,
		Threshold: q.Threshold,
		AppFactory: func(region int) afr.StateApp {
			return query.NewState(q, sc.SubSlots(), sc.SubSlots()*16, uint64(sc.Seed)+uint64(region))
		},
		KeyOf: queryKey(q),
		Slots: sc.SubSlots(),
	}
}
