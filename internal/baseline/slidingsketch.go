package baseline

import (
	"omniwindow/internal/packet"
	"omniwindow/internal/sketch"
)

// SlidingSketchConfig parameterizes the Sliding Sketch baseline runner.
type SlidingSketchConfig struct {
	// WindowNs is the queried (sliding) window length; the underlying
	// buckets rotate at this period.
	WindowNs int64
	// SlideNs is how often a window result is emitted.
	SlideNs int64
}

// RunSlidingSketch runs the Sliding Sketch baseline: the two-bucket
// sketch counts packets per 5-tuple, rotates every WindowNs and is
// queried every SlideNs. Keys are tracked exactly over the trailing
// window (candidate generation is not what the baseline is measuring);
// values come from the sketch and —
// deliberately, per the design — contain information of more than one
// sliding window, the overestimation that costs Sliding Sketch precision.
func RunSlidingSketch(pkts []packet.Packet, duration int64, cfg SlidingSketchConfig, s *sketch.Sliding) []WindowOutput {
	spans := Spans(duration, cfg.WindowNs, cfg.SlideNs)
	out := make([]WindowOutput, 0, len(spans))
	next := 0 // next packet index
	rotations := int64(1)
	for _, sp := range spans {
		// Ingest packets up to this window's end, rotating buckets at
		// every WindowNs boundary.
		for next < len(pkts) && pkts[next].Time < sp.End {
			p := &pkts[next]
			for p.Time >= rotations*cfg.WindowNs {
				s.Advance()
				rotations++
			}
			s.Update(p.Key, 1)
			next++
		}
		for sp.End > rotations*cfg.WindowNs {
			s.Advance()
			rotations++
		}
		// Candidate keys: exactly those active in the queried window.
		values := make(map[packet.FlowKey]uint64)
		for _, p := range Slice(pkts, sp.Start, sp.End) {
			if _, ok := values[p.Key]; !ok {
				values[p.Key] = s.Query(p.Key)
			}
		}
		out = append(out, WindowOutput{Span: sp, Values: values})
	}
	return out
}
