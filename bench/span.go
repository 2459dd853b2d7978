package main

import (
	"sort"
	"time"
)

// span is one timed call (or batch of calls) across a layer boundary,
// recorded by the driver around the program's exported functions.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Name   string `json:"name"`
	Replay int    `json:"replay"`
	// SubWindow is the sub-window the call worked on, -1 when none.
	SubWindow int   `json:"sub_window"`
	Start     int64 `json:"start_ns"` // since the recorder was made
	End       int64 `json:"end_ns"`
	// Self is the duration minus what the span's children cover, filled in
	// by setSelfTimes when the spans are written out.
	Self int64 `json:"self_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, which is how the untraced replays run.
type recorder struct {
	origin time.Time
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// open starts a span at t and returns its id, the parent of its children.
func (r *recorder) open(name string, parent, replay, subWindow int, t time.Time) int {
	if r == nil {
		return -1
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Name: name, Replay: replay, SubWindow: subWindow,
		Start: int64(t.Sub(r.origin)), End: -1,
	})
	return id
}

func (r *recorder) close(id int, t time.Time) {
	if r == nil {
		return
	}
	r.spans[id].End = int64(t.Sub(r.origin))
}

func (r *recorder) add(name string, parent, replay, subWindow int, start, end time.Time) {
	r.close(r.open(name, parent, replay, subWindow, start), end)
}

// setSelfTimes sets every span's Self: its duration minus the part of its
// interval that its child spans cover, overlapping children counted once.
func setSelfTimes(spans []span) {
	type interval struct{ lo, hi int64 }
	children := make(map[int][]interval)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	for i, s := range spans {
		self := s.End - s.Start
		iv := children[s.ID]
		sort.Slice(iv, func(a, b int) bool { return iv[a].lo < iv[b].lo })
		covered := s.Start
		for _, c := range iv {
			lo, hi := max(c.lo, covered), min(c.hi, s.End)
			if hi > lo {
				self -= hi - lo
				covered = hi
			}
		}
		spans[i].Self = self
	}
}
