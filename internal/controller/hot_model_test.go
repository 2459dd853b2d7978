package controller

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"omniwindow/internal/packet"
)

// mapHotTracker is the HotTracker this package shipped before the indexed
// layout: one Go map from key to packed state, one map delete per
// forgotten key. It is kept as the naive reference the layout must match.
type mapHotTracker struct {
	capacity, threshold, hotCount int
	state                         map[packet.FlowKey]int32
}

func newMapHotTracker(capacity, threshold int) *mapHotTracker {
	return &mapHotTracker{capacity: capacity, threshold: max(threshold, 1), state: map[packet.FlowKey]int32{}}
}

func (h *mapHotTracker) observe(k packet.FlowKey) (promote bool) {
	v := h.state[k] + 2
	if v&hotBit == 0 && int(v>>1) >= h.threshold && h.hotCount < h.capacity {
		v |= hotBit
		h.hotCount++
		promote = true
	}
	h.state[k] = v
	return promote
}

func (h *mapHotTracker) isHot(k packet.FlowKey) bool { return h.state[k]&hotBit != 0 }

func (h *mapHotTracker) decay() (demote []packet.FlowKey) {
	for k, v := range h.state {
		c, hot := v>>2, v&hotBit
		if hot != 0 && int(c) < h.threshold {
			hot = 0
			h.hotCount--
			demote = append(demote, k)
		}
		if c == 0 {
			delete(h.state, k)
			continue
		}
		h.state[k] = c<<1 | hot
	}
	return demote
}

// byKey orders flow keys field by field.
func byKey(a, b packet.FlowKey) int {
	return cmp.Or(cmp.Compare(a.SrcIP, b.SrcIP), cmp.Compare(a.DstIP, b.DstIP),
		cmp.Compare(a.SrcPort, b.SrcPort), cmp.Compare(a.DstPort, b.DstPort), cmp.Compare(a.Proto, b.Proto))
}

// TestHotTrackerMatchesMapModel drives the indexed tracker and the map
// model through seeded streams of observe batches and decays: duplicate
// keys inside one batch (what a duplicating AFR fault delivers), a key
// population far beyond the MAT capacity, threshold 1, keys that recur
// after being demoted or forgotten, decays with nothing to demote and
// decays of an empty tracker. After every step each record's promote flag,
// the demote set, HotCount and IsHot over every key ever seen must agree.
func TestHotTrackerMatchesMapModel(t *testing.T) {
	for _, tc := range []hotCase{
		{"dup-in-batch", 64, 3, 300, 128, 3, 4},
		{"saturated", 8, 2, 5000, 128, 0, 6},
		{"threshold-1", 16, 1, 200, 40, 5, 2},
		{"threshold-0-clamps-to-1", 16, 0, 100, 17, 0, 3},
		{"repromote", 4096, 3, 40, 128, 2, 1},
		{"growth", 4096, 3, 20000, 128, 0, 40},
		{"empty-decays", 8, 4, 50, 3, 0, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			runHotModel(t, tc, func(i int) packet.FlowKey {
				return packet.FlowKey{SrcIP: uint32(i), DstIP: uint32(i * 7), SrcPort: uint16(i), Proto: packet.ProtoTCP}
			})
		})
	}
}

// hotCase is one stream shape of the tracker differential.
type hotCase struct {
	name                string
	capacity, threshold int
	keys, batchMax      int // key population, records per batch
	dupEvery            int // every dupEvery-th record repeats the previous one
	decayEvery          int // decay after this many batches
}

// runHotModel drives the indexed tracker and the map model through three
// seeded streams of tc's shape over the keys key(0) to key(tc.keys-1).
func runHotModel(t *testing.T, tc hotCase, key func(int) packet.FlowKey) {
	t.Helper()
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		got, want := NewHotTracker(tc.capacity, tc.threshold), newMapHotTracker(tc.capacity, tc.threshold)
		seen := map[packet.FlowKey]bool{}
		recs := make([]packet.AFR, tc.batchMax)
		promote := make([]bool, tc.batchMax)
		// check compares the counts and the hotness of keys: the
		// batch's after an observe, every key seen after a decay.
		check := func(step int, keys []packet.AFR) {
			t.Helper()
			if got.HotCount() != want.hotCount {
				t.Fatalf("seed %d step %d: HotCount = %d, model %d", seed, step, got.HotCount(), want.hotCount)
			}
			for _, r := range keys {
				if k := r.Key; got.IsHot(k) != want.isHot(k) {
					t.Fatalf("seed %d step %d: IsHot(%v) = %v, model %v", seed, step, k, got.IsHot(k), want.isHot(k))
				}
			}
			if keys != nil {
				return
			}
			for k := range seen {
				if got.IsHot(k) != want.isHot(k) {
					t.Fatalf("seed %d step %d: IsHot(%v) = %v, model %v", seed, step, k, got.IsHot(k), want.isHot(k))
				}
			}
		}
		for step := 0; step < 120; step++ {
			if step%tc.decayEvery == tc.decayEvery-1 {
				// Two decays in a row now and then: the second
				// finds counts already halved, or nothing at all.
				for d := 0; d <= rng.Intn(4)/3; d++ {
					g, w := slices.Clone(got.Decay()), want.decay()
					slices.SortFunc(g, byKey)
					slices.SortFunc(w, byKey)
					if !slices.Equal(g, w) {
						t.Fatalf("seed %d step %d: Decay demoted %v, model %v", seed, step, g, w)
					}
					check(step, nil)
				}
			}
			// Skew toward a small hot set so keys recur, get
			// promoted, demoted and promoted again.
			n := rng.Intn(tc.batchMax + 1)
			for i := 0; i < n; i++ {
				if tc.dupEvery > 0 && i > 0 && rng.Intn(tc.dupEvery) == 0 {
					recs[i] = recs[i-1]
					continue
				}
				k := rng.Intn(tc.keys)
				if rng.Intn(2) == 0 {
					k = rng.Intn(max(tc.keys/16, 1))
				}
				recs[i] = packet.AFR{Key: key(k), Seq: uint32(i)}
				seen[recs[i].Key] = true
			}
			clear(promote)
			if n == 1 && rng.Intn(2) == 0 {
				promote[0] = got.Observe(recs[0].Key)
			} else {
				got.ObserveAFRs(recs[:n], promote[:n])
			}
			for i := 0; i < n; i++ {
				if w := want.observe(recs[i].Key); promote[i] != w {
					t.Fatalf("seed %d step %d: record %d (%v) promote = %v, model %v",
						seed, step, i, recs[i].Key, promote[i], w)
				}
			}
			check(step, recs[:n])
		}
	}
}
