package controller

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"omniwindow/internal/afr"
	"omniwindow/internal/packet"
	"omniwindow/internal/window"
)

// joinFolds waits until no shard has a fold ahead started or running: one
// that is started but waits for the fold lock still reads folding.
func joinFolds(c *Controller) {
	for _, s := range c.shards {
		for folding := true; folding; runtime.Gosched() {
			s.foldMu.Lock()
			s.mu.Lock()
			folding = s.folding
			s.mu.Unlock()
			s.foldMu.Unlock()
		}
	}
}

// ingestIn128s ingests n records of sub-window sw, keys cycling through
// keys distinct flows and sequences from 0, in 128-record batches: the
// packet path's delivery batch.
func ingestIn128s(c *Controller, sw uint64, n, keys int) {
	recs := make([]packet.AFR, n)
	for i := range recs {
		recs[i] = packet.AFR{Key: fk(i % keys), SubWindow: sw, Attr: uint64(i%7 + 1), Seq: uint32(i)}
	}
	for off := 0; off < n; off += 128 {
		c.IngestAFRs(recs[off:min(n, off+128)])
	}
}

// foldedAhead returns, per shard, how many of sub-window sw's pending
// records a fold ahead has inserted, and how many it holds. Caller has
// joined the folds.
func foldedAhead(c *Controller, sw uint64) (folded, held []int) {
	for _, s := range c.shards {
		s.mu.Lock()
		p := s.pending[sw]
		folded, held = append(folded, p.folded), append(held, len(p.recs))
		s.mu.Unlock()
	}
	return folded, held
}

// TestFoldAheadInsertsWhileArriving is O2 on arrival: 30 000 records of the
// sub-window that finishes next arrive at two shards, and by the time the
// finish comes each shard's column already holds all but fewer than
// foldChunk of its records. Readers see the state before the finish as if
// nothing had been folded (TableSize, the cut), and the folds' time is
// booked to the sub-window's O2.
func TestFoldAheadInsertsWhileArriving(t *testing.T) {
	const n = 30_000
	c := New(Config{Plan: window.SlidingPlan(4, 1), Kind: afr.Frequency, Threshold: math.MaxUint64, Shards: 2})
	c.FinishSubWindow(0) // sub-window 1 finishes next
	ingestIn128s(c, 1, n, n)
	joinFolds(c)

	folded, held := foldedAhead(c, 1)
	var ahead time.Duration
	for i, s := range c.shards {
		col := s.table.held(1)
		if col == nil || col.count != folded[i] || held[i]-folded[i] >= foldChunk {
			t.Fatalf("shard %d: %d of its %d records folded ahead (column %+v), want all but fewer than %d",
				i, folded[i], held[i], col, foldChunk)
		}
		if !col.open {
			t.Fatalf("shard %d: the folded-ahead column is not open", i)
		}
		ahead += s.aheadInsert
	}
	if got := c.TableSize(); got != 0 {
		t.Fatalf("TableSize %d before the finish, want 0: only the open column holds rows", got)
	}
	if cut := c.ExportState(); len(cut.Live) != 0 || len(cut.Pending) != n {
		t.Fatalf("cut before the finish: Live %v, %d pending, want no live column and %d pending", cut.Live, len(cut.Pending), n)
	}

	c.FinishSubWindow(1)
	if got := c.TableSize(); got != n {
		t.Fatalf("TableSize %d after the finish, want %d", got, n)
	}
	if ins := c.Times(1).Insert; ahead <= 0 || ins < ahead {
		t.Fatalf("O2 booked %v, want at least the %v the folds ahead spent", ins, ahead)
	}
}

// TestFoldAheadGuards holds what is never folded ahead, at three shards
// against one (which never folds ahead): a sub-window before the first
// finish, one past the next, one the plan does not cover, and one whose
// ring slot a restore under another Plan left to another sub-window.
// Each case ingests 4×foldChunk records of its sub-window — about
// 2.7 K a shard, past foldChunk — and must emit the windows and cut bytes
// one shard does. The next sub-window, folded ahead, is the control.
func TestFoldAheadGuards(t *testing.T) {
	const n = 4 * foldChunk
	feed := func(c *Controller, upTo uint64) {
		for sw := uint64(0); sw <= upTo; sw++ {
			ingestIn128s(c, sw, 300, 300+int(sw)*50)
			c.FinishSubWindow(sw)
		}
	}
	cases := []struct {
		name string
		// prep builds the controller at a shard count and finishes what
		// the case needs; sw is the sub-window the bulk goes to.
		prep     func(shards int) *Controller
		sw, last uint64
		fold     bool
	}{
		{"next", func(shards int) *Controller {
			c := New(Config{Plan: window.SlidingPlan(3, 1), Kind: afr.Frequency, Threshold: 5, CaptureValues: true, Shards: shards})
			feed(c, 1)
			return c
		}, 2, 4, true},
		{"before-first-finish", func(shards int) *Controller {
			return New(Config{Plan: window.SlidingPlan(3, 1), Kind: afr.Frequency, Threshold: 5, CaptureValues: true, Shards: shards})
		}, 0, 3, false},
		{"past-next", func(shards int) *Controller {
			c := New(Config{Plan: window.SlidingPlan(3, 1), Kind: afr.Max, Threshold: 5, CaptureValues: true, Shards: shards})
			feed(c, 0)
			return c
		}, 2, 4, false},
		{"uncovered", func(shards int) *Controller {
			c := New(Config{Plan: window.Plan{Size: 2, Slide: 4}, Kind: afr.Frequency, Threshold: 5, CaptureValues: true, Shards: shards})
			feed(c, 1)
			return c
		}, 2, 5, false},
		{"slot-taken", func(shards int) *Controller {
			// Live {3, 4, 5} under Size 4 restores as {4, 5} under Size 2:
			// sub-window 6's slot holds 4.
			from := New(Config{Plan: window.SlidingPlan(4, 1), Kind: afr.Min, Threshold: 5, CaptureValues: true, Shards: shards})
			feed(from, 5)
			c := New(Config{Plan: window.Tumbling(2), Kind: afr.Min, Threshold: 5, CaptureValues: true, Shards: shards})
			c.RestoreState(from.ExportState())
			if !c.shards[0].table.slotTaken(6) {
				panic("the restore left sub-window 6's slot free")
			}
			return c
		}, 6, 7, false},
	}
	// run ingests the bulk at a shard count, joins the folds, and reports
	// what they inserted per shard, of how many records, the cut then, and
	// the windows and cut once the bulk's sub-window and the window after
	// it have finished.
	run := func(prep func(int) *Controller, shards int, sw, last uint64) (folded, held []int, before []byte, out string) {
		c := prep(shards)
		ingestIn128s(c, sw, n, n/3)
		joinFolds(c)
		folded, held = foldedAhead(c, sw)
		before = snapBytes(c.ExportState())
		from := sw
		if fin, ok := c.LastFinished(); ok {
			from = fin + 1
		}
		var b bytes.Buffer
		for f := from; f <= last; f++ {
			fmt.Fprintf(&b, "%d: %+v\n", f, c.FinishSubWindow(f))
		}
		fmt.Fprintf(&b, "table %d\n%x", c.TableSize(), snapBytes(c.ExportState()))
		return folded, held, before, b.String()
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, wantBefore, want := run(tc.prep, 1, tc.sw, tc.last)
			folded, held, before, got := run(tc.prep, 3, tc.sw, tc.last)
			if !bytes.Equal(before, wantBefore) {
				t.Fatalf("cut before the finish differs from one shard's")
			}
			if got != want {
				t.Fatalf("windows or cut differ from one shard's\n 3 shards %s\n 1 shard  %s", got, want)
			}
			total := 0
			for i := range folded {
				total += folded[i]
				if held[i] < foldChunk {
					t.Fatalf("shard %d holds %d records of sub-window %d, fewer than foldChunk: the case shows nothing", i, held[i], tc.sw)
				}
			}
			if (total > 0) != tc.fold {
				t.Fatalf("folds ahead inserted %d records of sub-window %d (per shard %v), want folding %v", total, tc.sw, folded, tc.fold)
			}
		})
	}
}

// TestFoldAheadSkipsFinishedSubWindow: an ingest that read LastFinished
// just before a finish settled appends records of the sub-window that
// finish drained, and may start a fold of it. The fold must leave the
// merged column alone.
func TestFoldAheadSkipsFinishedSubWindow(t *testing.T) {
	c := New(Config{Plan: window.SlidingPlan(3, 1), Kind: afr.Frequency, Threshold: 1, CaptureValues: true, Shards: 2})
	c.FinishSubWindow(0)
	ingestIn128s(c, 1, 300, 300)
	c.FinishSubWindow(1)
	s := c.shards[0]
	rows := s.table.held(1).count
	late := make([]packet.AFR, foldChunk)
	for i := range late {
		late[i] = packet.AFR{Key: fk(1000 + i), SubWindow: 1, Attr: 1, Seq: uint32(1000 + i)}
	}
	s.mu.Lock()
	s.appendPending(1, late, nil)
	s.folding, s.ahead = true, 1
	s.mu.Unlock()
	s.foldAhead()
	if got, p := s.table.held(1).count, s.pending[1]; got != rows || p.folded != 0 || s.folding {
		t.Fatalf("a fold of finished sub-window 1 ran: column rows %d -> %d, %d folded, folding %v", rows, got, p.folded, s.folding)
	}
}
