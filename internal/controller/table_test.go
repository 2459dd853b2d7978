package controller

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"omniwindow/internal/afr"
	"omniwindow/internal/packet"
	"omniwindow/internal/window"
)

// tableFor builds a bare table for a plan of `size` sub-windows.
func tableFor(kind afr.Kind, counter afr.DistinctCounter, size int) *table {
	t := newTable(Config{Kind: kind, DistinctCounter: counter, Plan: window.Tumbling(size)})
	return &t
}

// valueOf reads k's merged value without adding a row for it.
func (t *table) valueOf(k packet.FlowKey) (uint64, bool) {
	for r := uint32(0); r < uint32(t.n); r++ {
		if t.live[r] != 0 && t.keys[r] == k {
			return t.value(r), true
		}
	}
	return 0, false
}

// TestTableCellOpsMatchMerged: afr.Merged is the written definition of
// the five merge kinds. Folding any multiset of contributions into column
// cells, merging the columns and retiring some of them must give the value
// Merged reaches by absorbing the surviving contributions one at a time.
func TestTableCellOpsMatchMerged(t *testing.T) {
	const size = 4
	attrs := []uint64{0, 1, 2, 9, 1 << 40, math.MaxUint64, math.MaxUint64 - 1}
	type contribution struct {
		sw   uint64
		attr uint64
		summ packet.Summary
	}
	for _, k := range diffKinds {
		t.Run(k.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			for trial := 0; trial < 400; trial++ {
				// A multiset over sub-windows [base, base+size): several per
				// sub-window, none in some; retire the first `gone` of them.
				base := uint64(rng.Intn(50))
				var all []contribution
				for i, n := 0, rng.Intn(9); i < n; i++ {
					c := contribution{sw: base + uint64(rng.Intn(size)), attr: attrs[rng.Intn(len(attrs))]}
					if k.kind == afr.Distinction && rng.Intn(3) > 0 {
						for w := range c.summ {
							c.summ[w] = 1 << rng.Intn(64)
						}
					}
					all = append(all, c)
				}
				gone := uint64(rng.Intn(size + 1))

				tab := tableFor(k.kind, k.counter, size)
				key, other := fk(1), fk(2)
				for sw := base; sw < base+size; sw++ {
					var recs []packet.AFR
					var summ []packet.Summary
					for _, c := range all {
						if c.sw == sw {
							summ = packet.AppendSummary(summ, len(recs), c.summ)
							recs = append(recs, packet.AFR{Key: key, SubWindow: sw, Attr: c.attr})
						}
					}
					// A bystander keeps the table from emptying, so the retire
					// below exercises subtraction and re-fold, not release.
					summ = packet.AppendSummary(summ, len(recs), packet.Summary{})
					recs = append(recs, packet.AFR{Key: other, SubWindow: sw, Attr: 5})
					tab.insert(sw, recs, summ)
					tab.merge(sw)
				}
				if gone > 0 {
					tab.retire(base + gone - 1)
				}

				want := afr.NewMergedWithCounter(k.kind, k.counter)
				for _, c := range all {
					if c.sw >= base+gone {
						want.Absorb(c.attr, c.summ)
					}
				}
				got, ok := tab.valueOf(key)
				if ok != want.Seeded() {
					t.Fatalf("trial %d: row live = %v, Merged seeded = %v (%+v, retired %d)", trial, ok, want.Seeded(), all, gone)
				}
				if ok && got != want.Value() {
					t.Fatalf("trial %d: table value %d, Merged %d (%+v, retired %d)", trial, got, want.Value(), all, gone)
				}
			}
		})
	}
}

// TestTableRecycledRowReadsZero: a key that takes over a freed row must not
// inherit the previous tenant's cells, merged value, summary or presence.
func TestTableRecycledRowReadsZero(t *testing.T) {
	for _, k := range diffKinds {
		t.Run(k.name, func(t *testing.T) {
			tab := tableFor(k.kind, k.counter, 3)
			loud := packet.AFR{Key: fk(1), Attr: math.MaxUint64 - 7}
			loudSumm := []packet.Summary{{^uint64(0), 1, 2, 3}, {}}
			keep := packet.AFR{Key: fk(2), Attr: 1}
			for sw := uint64(0); sw < 3; sw++ {
				loud.SubWindow, keep.SubWindow = sw, sw
				tab.insert(sw, []packet.AFR{loud, keep}, loudSumm)
				tab.merge(sw)
			}
			// fk(2) lives on in sub-window 3, so retiring 0..2 frees only
			// fk(1)'s row and the table keeps its storage.
			keep.SubWindow = 3
			tab.insert(3, []packet.AFR{keep}, nil)
			tab.merge(3)
			tab.retire(2)
			if tab.rows != 1 || len(tab.free) != 1 {
				t.Fatalf("want one live row and one free row, got rows=%d free=%v", tab.rows, tab.free)
			}
			rows := tab.n
			quiet := packet.AFR{Key: fk(3), SubWindow: 4, Attr: 2}
			tab.insert(4, []packet.AFR{quiet}, nil)
			tab.merge(4)
			if tab.n != rows || len(tab.free) != 0 {
				t.Fatalf("fk(3) did not take the freed row: n %d -> %d, free %v", rows, tab.n, tab.free)
			}
			want := afr.NewMergedWithCounter(k.kind, k.counter)
			want.Absorb(2, packet.Summary{})
			if got, ok := tab.valueOf(fk(3)); !ok || got != want.Value() {
				t.Fatalf("recycled row reads %d (live %v), want %d", got, ok, want.Value())
			}
			if _, ok := tab.valueOf(fk(1)); ok {
				t.Fatal("the retired key is still in the table")
			}
		})
	}
}

// TestTableReleasesWhenEmpty: a retire that leaves no live row gives the
// row storage and the index back, and the next insert allocates once, at
// the remembered row high-water — not by doubling up from minRows.
func TestTableReleasesWhenEmpty(t *testing.T) {
	const flows = 1000
	tab := tableFor(afr.Frequency, nil, 2)
	window := func(base uint64) {
		for sw := base; sw < base+2; sw++ {
			recs := make([]packet.AFR, flows)
			for i := range recs {
				recs[i] = packet.AFR{Key: fk(i), SubWindow: sw, Attr: 1}
			}
			tab.insert(sw, recs, nil)
			tab.merge(sw)
		}
	}
	window(0)
	if tab.rows != flows || len(tab.keys) < flows {
		t.Fatalf("rows %d cap %d", tab.rows, len(tab.keys))
	}
	tab.retire(1)
	if tab.rows != 0 || tab.n != 0 || tab.keys != nil || tab.index != nil || tab.merged != nil || tab.free != nil {
		t.Fatalf("empty table kept storage: %+v", tab)
	}
	for i := range tab.cols {
		if c := &tab.cols[i]; c.live || c.attr != nil || c.present != nil {
			t.Fatalf("empty table kept column %d: %+v", i, c)
		}
	}
	if tab.hint != flows {
		t.Fatalf("remembered capacity %d, want the row high-water %d", tab.hint, flows)
	}
	window(2)
	if len(tab.keys) != flows {
		t.Fatalf("second window holds %d rows of capacity, want exactly the remembered %d", len(tab.keys), flows)
	}
	if v, ok := tab.valueOf(fk(7)); !ok || v != 2 {
		t.Fatalf("second window: fk(7) = %d (live %v), want 2", v, ok)
	}
}

// TestTableChurnAgainstMap drives one table through many sub-windows of a
// large, churning key population — index growth, long probe runs,
// backward-shift deletes, free-list reuse — against a plain map.
func TestTableChurnAgainstMap(t *testing.T) {
	const (
		size     = 3
		universe = 6000
	)
	rng := rand.New(rand.NewSource(11))
	tab := tableFor(afr.Frequency, nil, size)
	ref := map[packet.FlowKey]map[uint64]uint64{} // key -> sw -> attr
	for sw := uint64(0); sw < 120; sw++ {
		n := rng.Intn(2500)
		if sw%17 == 16 {
			n = 0 // now and then the table drains and releases
		}
		recs := make([]packet.AFR, n)
		for i := range recs {
			k, a := fk(rng.Intn(universe)), uint64(rng.Intn(100))
			recs[i] = packet.AFR{Key: k, SubWindow: sw, Attr: a}
			if ref[k] == nil {
				ref[k] = map[uint64]uint64{}
			}
			ref[k][sw] += a
		}
		tab.insert(sw, recs, nil)
		tab.merge(sw)
		if sw >= size-1 {
			retire := sw - (size - 1)
			tab.retire(retire)
			for k, bySW := range ref {
				if delete(bySW, retire); len(bySW) == 0 {
					delete(ref, k)
				}
			}
		}
		if tab.rows != len(ref) {
			t.Fatalf("sw %d: %d live rows, reference has %d keys", sw, tab.rows, len(ref))
		}
		values := map[packet.FlowKey]uint64{}
		tab.scan(&Config{Threshold: math.MaxUint64}, nil, values)
		for k, v := range values {
			var want uint64
			for _, a := range ref[k] {
				want += a
			}
			if _, ok := ref[k]; !ok || v != want {
				t.Fatalf("sw %d: key %v reads %d, want %d (known %v)", sw, k, v, want, ok)
			}
		}
		if len(values) != len(ref) {
			t.Fatalf("sw %d: scan visited %d rows, want %d", sw, len(values), len(ref))
		}
		// Every live key must still be reachable through the index.
		for k := range ref {
			if r := tab.row(k, keyTag(k)); tab.keys[r] != k || tab.live[r] == 0 {
				t.Fatalf("sw %d: index lost key %v", sw, k)
			}
		}
	}
}

// TestSubsamplingPlanDoesNotLeak is the reproducer for the Slide > Size
// leak: sub-windows that belong to no window were inserted after the
// retire that should have covered them and merged into the next window.
func TestSubsamplingPlanDoesNotLeak(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			c := New(Config{Plan: window.Plan{Size: 2, Slide: 4}, Kind: afr.Frequency, Threshold: 1, CaptureValues: true, Shards: shards})
			var got []uint64
			for sw := 0; sw < 12; sw++ {
				c.Receive(afrPkt(rec(1, sw, 1, 0)))
				for _, w := range c.FinishSubWindow(uint64(sw)) {
					if w.Start != uint64(sw-1) || w.End != uint64(sw) {
						t.Fatalf("window [%d,%d] ended at sub-window %d", w.Start, w.End, sw)
					}
					got = append(got, w.Values[fk(1)])
					if n := c.TableSize(); n != 0 {
						t.Fatalf("after window [%d,%d]: %d flows still in the table", w.Start, w.End, n)
					}
				}
				if n := c.TableSize(); n > 1 {
					t.Fatalf("sub-window %d: TableSize %d", sw, n)
				}
			}
			if fmt.Sprint(got) != "[2 2 2]" {
				t.Fatalf("windows [0,1] [4,5] [8,9] report %v, want [2 2 2]", got)
			}
		})
	}
}
