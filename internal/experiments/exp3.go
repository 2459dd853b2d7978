package experiments

import (
	"fmt"
	"math"
	"time"

	"omniwindow"
	"omniwindow/internal/afr"
	"omniwindow/internal/dml"
	"omniwindow/internal/telemetry"
	"omniwindow/internal/window"
)

// Exp3Row is one worker's measured transfer time for one iteration
// (Figure 9's series).
type Exp3Row struct {
	Iteration int
	Worker    int
	// MeasuredNs is the in-network measurement (OmniWindow user-defined
	// windows + span app).
	MeasuredNs int64
	// ExactNs is the host-side ground truth.
	ExactNs int64
	// Ratio is the gradient compression ratio in effect.
	Ratio int
}

// Exp3Result is the Figure 9 reproduction.
type Exp3Result struct {
	Rows    []Exp3Row
	Workers int
}

// Table renders sampled iterations.
func (r Exp3Result) Table() string {
	rows := make([][]string, 0)
	for _, row := range r.Rows {
		if row.Iteration%8 != 0 {
			continue
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", row.Iteration),
			fmt.Sprintf("%d", row.Worker),
			fmt.Sprintf("%d", row.Ratio),
			fmt.Sprintf("%.1f", float64(row.MeasuredNs)/1e3),
			fmt.Sprintf("%.1f", float64(row.ExactNs)/1e3),
		})
	}
	return table([]string{"Iter", "Worker", "Ratio", "Measured(us)", "Exact(us)"}, rows)
}

// MaxRelError returns the worst measurement error across all rows.
func (r Exp3Result) MaxRelError() float64 {
	worst := 0.0
	for _, row := range r.Rows {
		if row.ExactNs == 0 {
			continue
		}
		e := math.Abs(float64(row.MeasuredNs-row.ExactNs)) / float64(row.ExactNs)
		if e > worst {
			worst = e
		}
	}
	return worst
}

// RunExp3 reproduces Exp#3 (Figure 9): OmniWindow monitors a parameter-
// server training job through user-defined signals — each packet carries
// its training iteration, the sub-window adopts it, and a span app records
// each worker's first-to-last gradient packet per iteration.
func RunExp3(cfg dml.Config) Exp3Result {
	pkts := dml.Generate(cfg)
	exact := dml.IterationTimes(pkts, cfg.Workers, cfg.Iterations)

	const slots = 1024
	d := deploy(omniwindow.Config{
		Signal: window.UserSignal{},
		Plan:   window.Tumbling(1), // one window per training iteration
		Kind:   afr.Max,
		AppFactory: func(region int) afr.StateApp {
			return telemetry.NewSpanApp(slots, uint64(region))
		},
		Slots:         slots,
		CaptureValues: true,
		Tracker:       afr.TrackerConfig{BufferKeys: 256, BloomBits: 1 << 14, BloomHashes: 3},
		// DML iterations last single-digit milliseconds; collection must
		// start well within one iteration so the shared regions rotate
		// cleanly (C&R time << window, §6).
		Grace: 50 * time.Microsecond,
	})
	results := d.Run(pkts)

	res := Exp3Result{Workers: cfg.Workers}
	for _, w := range results {
		iter := int(w.Start)
		if iter >= cfg.Iterations {
			continue
		}
		for wk := 0; wk < cfg.Workers; wk++ {
			res.Rows = append(res.Rows, Exp3Row{
				Iteration:  iter,
				Worker:     wk,
				MeasuredNs: int64(w.Values[dml.WorkerKey(wk)]),
				ExactNs:    exact[wk][iter],
				Ratio:      cfg.Ratio(iter),
			})
		}
	}
	return res
}
