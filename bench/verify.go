package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"

	"omniwindow"
	"omniwindow/internal/packet"
	"omniwindow/internal/trace"
)

// truth holds exact per-sub-window packet counts of every flow that could
// reach the threshold in some window: those whose count over the whole
// trace does. It is built once per trace, so checking a replay costs a
// scan of these few thousand flows and not of the trace.
type truth struct {
	threshold uint64
	counts    map[packet.FlowKey][]uint32 // flow -> packets per sub-window
}

func newTruth(w workload, pkts []packet.Packet) *truth {
	t := &truth{threshold: w.Threshold, counts: make(map[packet.FlowKey][]uint32)}
	for k, n := range trace.CountTruth(pkts, 0, w.duration()) {
		if n >= w.Threshold {
			t.counts[k] = make([]uint32, w.SubWindows)
		}
	}
	for i := range pkts {
		if c, ok := t.counts[pkts[i].Key]; ok {
			c[pkts[i].Time/int64(subWindow)]++
		}
	}
	return t
}

// heavy returns the flows whose true count over the window reaches the
// threshold.
func (t *truth) heavy(win windowSpan) []packet.FlowKey {
	var out []packet.FlowKey
	for k, c := range t.counts {
		var n uint64
		for sw := win.Start; sw <= win.End; sw++ {
			n += uint64(c[sw])
		}
		if n >= t.threshold {
			out = append(out, k)
		}
	}
	return out
}

// verdict is the outcome of checking one replay's window stream.
type verdict struct {
	// Failed counts windows that are missing, unexpected, flagged, or that
	// miss a truly heavy flow.
	Failed int
	// Digest identifies the window stream: every window's Start, End and
	// sorted Detected set. Replays of one trace must agree on it whatever
	// the transport or durability setting.
	Digest string
	Errs   []string
}

// checkWindows checks a replay's emitted windows against the plan and the
// ground truth. Count-Min never under-counts, so recall must be total, and
// the persistent flows make every window hold true positives.
func checkWindows(w workload, t *truth, results []omniwindow.WindowResult) verdict {
	var v verdict
	fail := func(format string, a ...any) {
		v.Failed++
		if len(v.Errs) < 8 {
			v.Errs = append(v.Errs, fmt.Sprintf(format, a...))
		}
	}
	expected := w.expectedWindows()
	h := sha256.New()
	var word [8]byte
	for i, res := range results {
		keys := make([][packet.KeyBytes]byte, len(res.Detected))
		for j, k := range res.Detected {
			keys[j] = k.Bytes()
		}
		sort.Slice(keys, func(a, b int) bool { return bytes.Compare(keys[a][:], keys[b][:]) < 0 })
		binary.BigEndian.PutUint64(word[:], res.Start)
		h.Write(word[:])
		binary.BigEndian.PutUint64(word[:], res.End)
		h.Write(word[:])
		for j := range keys {
			h.Write(keys[j][:])
		}

		if i >= len(expected) {
			fail("unexpected window [%d,%d]", res.Start, res.End)
			continue
		}
		if win := expected[i]; res.Start != win.Start || res.End != win.End {
			fail("window %d is [%d,%d], want [%d,%d]", i, res.Start, res.End, win.Start, win.End)
			continue
		}
		if res.Incomplete || res.Degraded || res.MissingAFRs != 0 || res.ShedAFRs != 0 {
			fail("window [%d,%d] flagged: incomplete=%v degraded=%v missing=%d shed=%d",
				res.Start, res.End, res.Incomplete, res.Degraded, res.MissingAFRs, res.ShedAFRs)
			continue
		}
		heavy := t.heavy(expected[i])
		if len(heavy) == 0 {
			fail("window [%d,%d] has no truly heavy flow: the recall check is vacuous", res.Start, res.End)
			continue
		}
		detected := make(map[packet.FlowKey]struct{}, len(res.Detected))
		for _, k := range res.Detected {
			detected[k] = struct{}{}
		}
		missed := 0
		for _, k := range heavy {
			if _, ok := detected[k]; !ok {
				missed++
			}
		}
		if missed > 0 {
			fail("window [%d,%d] misses %d of %d heavy flows", res.Start, res.End, missed, len(heavy))
		}
	}
	for i := len(results); i < len(expected); i++ {
		fail("window [%d,%d] was not emitted", expected[i].Start, expected[i].End)
	}
	v.Digest = hex.EncodeToString(h.Sum(nil))
	return v
}
