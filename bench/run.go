package main

import (
	"fmt"
	"runtime"
	"time"

	"omniwindow/internal/packet"
)

const (
	// setups is how often the trace is generated, so that setup_s is a
	// median and not the one page-fault-heavy first allocation.
	setups = 3
	// minTimedReplays is the fewest timed replays a run reports a median
	// over, however slow one replay is.
	minTimedReplays = 3
)

// runResult is everything one run of one workload measured and checked.
type runResult struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// Attempted and Failed count windows over every replay of the run,
	// the warm-up and the traced ones included.
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Errors    []string `json:"errors,omitempty"`
	Digest    string   `json:"digest"`
	Packets   int      `json:"packets"`

	TimedReplays int `json:"timed_replays"`
	CloseSamples int `json:"close_samples"`
	// Slowdown is how much slower than nominal the reference kernel ran
	// over the run; the end-to-end times are divided by it.
	Slowdown float64            `json:"machine_slowdown"`
	EndToEnd map[string]float64 `json:"end_to_end"`
	PerLayer map[string]float64 `json:"per_layer,omitempty"`

	spans []span
}

// note adds one replay's verdict to the run's.
func (r *runResult) note(w workload, s replayStats) {
	windows := len(w.expectedWindows())
	r.Attempted += windows
	r.Failed += s.Failed
	r.Errors = append(r.Errors, s.Errs...)
	switch {
	case r.Digest == "":
		r.Digest = s.Digest
	case s.Digest != r.Digest:
		r.Failed += windows - s.Failed
		r.Errors = append(r.Errors, "window stream digest differs between replays of one trace")
	}
	if cr := s.Stats.MaxCollectVirtual; cr >= subWindow {
		r.Errors = append(r.Errors, fmt.Sprintf("modeled C&R time %v does not fit in a sub-window", cr))
	}
}

// runWorkload generates the workload's trace from the seed, replays it once
// to warm up and then, timed, until budget has passed (at least
// minTimedReplays times), each time through a fresh deployment, and checks
// every replay's windows. A workload with a reference deployment replays
// the trace through that one first, so that every later replay's digest is
// held against the reference's. A traced run adds one replay under the span
// recorder, one with the program's instrumentation on, and the layer
// ladder.
func runWorkload(w workload, seed int64, budget time.Duration, traced bool, tmpRoot string) (*runResult, error) {
	res := &runResult{Workload: w.Name, Seed: seed}

	var pkts []packet.Packet
	var gens []float64
	var m machine
	for i := 0; i < setups; i++ {
		pkts = nil
		runtime.GC() // the previous copy must not be live beside the next
		m.sample()
		t0 := time.Now()
		pkts = w.generate(seed)
		gens = append(gens, time.Since(t0).Seconds())
		m.sample()
	}
	gen := median(gens)
	res.Packets = len(pkts)
	truth := newTruth(w, pkts)
	trace := compact(pkts)
	pkts = nil

	// runAs replays the trace once through v's deployment, between two
	// timings of the reference kernel, and checks the windows it emitted.
	runAs := func(v workload, opt replayOptions) (replayStats, error) {
		opt.tmpRoot = tmpRoot
		m.sample()
		s, err := replay(v, trace, truth, opt)
		m.sample()
		if err == nil {
			res.note(v, s)
		}
		return s, err
	}
	run := func(opt replayOptions) (replayStats, error) { return runAs(w, opt) }

	// Transport and durability must not change a byte of the window
	// stream: the first digest noted is the reference deployment's.
	if ref, ok := w.reference(); ok {
		if _, err := runAs(ref, replayOptions{}); err != nil {
			return nil, err
		}
	}
	// The first replay in a process pays for growing the heap to the
	// working set, seconds of page faults that later replays do not see.
	if _, err := run(replayOptions{}); err != nil {
		return nil, err
	}
	var timed []replayStats
	for start := time.Now(); len(timed) < minTimedReplays || time.Since(start) < budget; {
		s, err := run(replayOptions{})
		if err != nil {
			return nil, err
		}
		timed = append(timed, s)
	}
	res.TimedReplays = len(timed)
	res.CloseSamples = len(timed) * (w.SubWindows - w.Plan.Size + 1)
	res.Slowdown = m.slowdown()
	res.EndToEnd = endToEndMetrics(w, timed, gen, res.Slowdown)

	if traced {
		rec := newRecorder()
		t := tracedRun{timed: timed}
		var err error
		if t.traced, err = run(replayOptions{rec: rec, id: 0}); err != nil {
			return nil, err
		}
		if t.withObs, err = run(replayOptions{obs: true}); err != nil {
			return nil, err
		}
		if t.ladder, err = runLadder(w, trace, tmpRoot, rec, 1); err != nil {
			return nil, err
		}
		res.PerLayer = perLayerMetrics(w, t, gen, len(trace), res.Slowdown)
		res.spans = rec.spans
	}
	res.Correct = res.Failed == 0 && len(res.Errors) == 0
	return res, nil
}
