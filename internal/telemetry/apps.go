// Package telemetry binds the sketch library to OmniWindow's StateApp
// interface, implementing the four sketch-based tasks of Exp#2:
//
//   - Q8 super-spreader detection (SpreadSketch, Vector Bloom Filter)
//   - Q9 heavy-hitter detection (MV-Sketch, HashPipe)
//   - Q10 per-flow statistics (Count-Min, SuMax)
//   - Q11 flow cardinality (Linear Counting, HyperLogLog)
//
// Each app is one memory region's state; OmniWindow instantiates two per
// switch under the shared-region layout.
package telemetry

import (
	"omniwindow/internal/afr"
	"omniwindow/internal/hashing"
	"omniwindow/internal/packet"
	"omniwindow/internal/sketch"
)

// FrequencyApp adapts a frequency sketch (Count-Min, SuMax, MV, HashPipe)
// to afr.StateApp. KeyOf and VolumeOf default to the 5-tuple and packet
// count.
type FrequencyApp struct {
	sk sketch.Sketch
	// KeyOf maps a packet to the aggregation key; nil uses the 5-tuple.
	KeyOf func(*packet.Packet) packet.FlowKey
	// VolumeOf maps a packet to its contribution; nil counts packets.
	VolumeOf func(*packet.Packet) uint64
	slots    int
}

// NewFrequencyApp wraps sk; slots is the per-register entry count the
// in-switch reset must enumerate (the sketch row width).
func NewFrequencyApp(sk sketch.Sketch, slots int) *FrequencyApp {
	if slots <= 0 {
		panic("telemetry: slots must be positive")
	}
	return &FrequencyApp{sk: sk, slots: slots}
}

// Sketch exposes the wrapped sketch (for invertible decoding by
// baselines).
func (a *FrequencyApp) Sketch() sketch.Sketch { return a.sk }

// Update implements afr.StateApp.
func (a *FrequencyApp) Update(p *packet.Packet) {
	k := p.Key
	if a.KeyOf != nil {
		k = a.KeyOf(p)
	}
	v := uint64(1)
	if a.VolumeOf != nil {
		v = a.VolumeOf(p)
	}
	a.sk.Update(k, v)
}

// Query implements afr.StateApp.
func (a *FrequencyApp) Query(k packet.FlowKey) afr.Attr {
	return afr.Attr{Value: a.sk.Query(k)}
}

// ResetSlot implements afr.StateApp. Each clear packet resets one slot of
// every register; the wrapped sketch exposes no per-slot API, so the state
// clears atomically when the enumeration completes — equivalent final
// state, same modeled pass count.
func (a *FrequencyApp) ResetSlot(i int) {
	if i == a.slots-1 {
		a.sk.Reset()
	}
}

// Slots implements afr.StateApp.
func (a *FrequencyApp) Slots() int { return a.slots }

// SpreadApp adapts a Spread sketch (SpreadSketch, VBF) to afr.StateApp for
// super-spreader detection: keys are source hosts, elements are
// destination hosts.
type SpreadApp struct {
	sp    sketch.Spread
	slots int
	// summary extracts the mergeable distinct summary, set per backend.
	summary func(src packet.FlowKey) [4]uint64
}

// NewSpreadSketchApp wraps a SpreadSketch.
func NewSpreadSketchApp(s *sketch.SpreadSketch, slots int) *SpreadApp {
	return &SpreadApp{sp: s, slots: slots, summary: s.Summary}
}

// NewVBFApp wraps a Vector Bloom Filter. Pair it with
// sketch.VBFDistinctCounter on the controller.
func NewVBFApp(v *sketch.VBF, slots int) *SpreadApp {
	return &SpreadApp{sp: v, slots: slots, summary: func(src packet.FlowKey) [4]uint64 {
		return [4]uint64{v.SummaryBitmap(src)}
	}}
}

// Spread exposes the wrapped sketch.
func (a *SpreadApp) Spread() sketch.Spread { return a.sp }

// Update implements afr.StateApp.
func (a *SpreadApp) Update(p *packet.Packet) {
	a.sp.UpdateSpread(p.Key.SrcHostKey(), p.Key.DstHostKey())
}

// Query implements afr.StateApp.
func (a *SpreadApp) Query(k packet.FlowKey) afr.Attr {
	return afr.Attr{Value: a.sp.QuerySpread(k), Summary: a.summary(k)}
}

// ResetSlot implements afr.StateApp.
func (a *SpreadApp) ResetSlot(i int) {
	if i == a.slots-1 {
		a.sp.Reset()
	}
}

// Slots implements afr.StateApp.
func (a *SpreadApp) Slots() int { return a.slots }

// spanSlot records the first and last packet timestamps of one key.
type spanSlot struct {
	key         packet.FlowKey
	first, last int64
	used        bool
}

// SpanApp measures per-key packet time spans: the switch records the
// timestamps of the first and the last packet of each key within the
// window — the Exp#3 case study's in-network measurement of DML iteration
// transfer times. The state is a hash-indexed slot array (two registers:
// min-time and max-time) as a switch would implement it.
type SpanApp struct {
	slots []spanSlot
	seed  uint64
	// KeyOf maps packets to measured keys; nil uses the 5-tuple.
	KeyOf func(*packet.Packet) packet.FlowKey
}

// NewSpanApp builds a span app with the given slot count.
func NewSpanApp(slots int, seed uint64) *SpanApp {
	if slots <= 0 {
		panic("telemetry: slots must be positive")
	}
	return &SpanApp{slots: make([]spanSlot, slots), seed: seed}
}

func (a *SpanApp) slot(k packet.FlowKey) *spanSlot {
	return &a.slots[hashing.Index(k, a.seed, len(a.slots))]
}

// Update implements afr.StateApp.
func (a *SpanApp) Update(p *packet.Packet) {
	k := p.Key
	if a.KeyOf != nil {
		k = a.KeyOf(p)
	}
	s := a.slot(k)
	if !s.used || s.key != k {
		// First sighting (or collision eviction: last writer wins, as a
		// single-location SALU would behave).
		*s = spanSlot{key: k, first: p.Time, last: p.Time, used: true}
		return
	}
	if p.Time < s.first {
		s.first = p.Time
	}
	if p.Time > s.last {
		s.last = p.Time
	}
}

// Query implements afr.StateApp: the measured span in nanoseconds.
func (a *SpanApp) Query(k packet.FlowKey) afr.Attr {
	s := a.slot(k)
	if !s.used || s.key != k {
		return afr.Attr{}
	}
	return afr.Attr{Value: uint64(s.last - s.first)}
}

// ResetSlot implements afr.StateApp.
func (a *SpanApp) ResetSlot(i int) { a.slots[i] = spanSlot{} }

// Slots implements afr.StateApp.
func (a *SpanApp) Slots() int { return len(a.slots) }
