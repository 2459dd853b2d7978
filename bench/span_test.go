package main

import (
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	r := newRecorder()
	at := func(ms int) time.Time { return r.origin.Add(time.Duration(ms) * time.Millisecond) }
	root := r.open("root", -1, 0, -1, at(0))
	a := r.open("a", root, 0, 0, at(10))
	r.add("a1", a, 0, 0, at(12), at(18)) // nested in a
	r.close(a, at(30))
	r.add("b", root, 0, 1, at(25), at(50))  // overlaps a by 5 ms
	r.add("c", root, 0, 2, at(90), at(120)) // runs 20 ms past root's end
	r.close(root, at(100))

	ms := func(d int) int64 { return int64(time.Duration(d) * time.Millisecond) }
	setSelfTimes(r.spans)
	want := map[string]int64{
		"root": ms(100 - (40 + 10)), // a and b cover [10,50) once, c covers [90,100)
		"a":    ms(20 - 6),
		"a1":   ms(6),
		"b":    ms(25),
		"c":    ms(30),
	}
	for _, s := range r.spans {
		if s.Self != want[s.Name] {
			t.Errorf("self time of %s = %v, want %v", s.Name, time.Duration(s.Self), time.Duration(want[s.Name]))
		}
	}
}

func TestNilRecorderRecordsNothing(t *testing.T) {
	var r *recorder
	now := time.Now()
	id := r.open("x", -1, 0, 0, now)
	r.close(id, now)
	r.add("y", id, 0, 0, now, now)
}
