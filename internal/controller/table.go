// The columnar key-value table (see DESIGN.md, "Table layout"). Each shard
// owns one: an open-addressed key index resolves a flow key to a dense row
// id, and everything else is a row-indexed column — the keys, the merged
// values, and one attribute column per live sub-window held in a ring of
// Plan.Size slots. O2 folds a record into the current column's cell, O3
// merges that column into `merged` with one internal/simd kernel pass, O4
// scans `merged`, and O5 retires whole columns: invertible kinds subtract
// the column back out, the others re-fold only the rows the column touched.

package controller

import (
	"math"
	"math/bits"

	"omniwindow/internal/afr"
	"omniwindow/internal/hashing"
	"omniwindow/internal/packet"
	"omniwindow/internal/simd"
)

// minRows is a table's first row allocation, before any release has set
// its hint.
const minRows = 64

// bitset is one bit per row.
type bitset []uint64

func bitsetFor(rows int) bitset { return make(bitset, (rows+63)>>6) }

func (b bitset) has(r uint32) bool { return b[r>>6]&(1<<(r&63)) != 0 }
func (b bitset) set(r uint32)      { b[r>>6] |= 1 << (r & 63) }
func (b bitset) unset(r uint32)    { b[r>>6] &^= 1 << (r & 63) }

// column is one sub-window's contributions: a cell per row, zero where the
// row did not appear, plus which rows did. A column that is not live holds
// only zeros (retire clears exactly the cells it set), so a ring slot's
// storage is reused as is by the next sub-window that maps to it.
type column struct {
	sw   uint64
	live bool
	// open: O2 has folded records into the column and O3 has not merged
	// it yet. Only a fold ahead leaves a column open past its finish's
	// insert; merged, scans and cuts do not hold its contributions.
	open    bool
	count   int // set bits in present
	attr    []uint64
	present bitset
	// summ holds the Distinction summaries, four words per row, all zero
	// for a row that carries none (packet.Summary). Allocated on the first
	// summary the column sees.
	summ []uint64
}

// table is one shard's partition of the key-value table. Only the shard's
// finish worker and its fold ahead touch it, each under shard.foldMu.
type table struct {
	kind    afr.Kind
	counter afr.DistinctCounter

	// index is open-addressed with linear probing. A slot is
	// tag<<32 | row+1 (0 = empty), where tag is keyTag(key) and tag&mask
	// its home slot: a probe rejects strangers without touching the key
	// column, and growth and backward-shift deletion re-place slots from
	// the tag alone. It holds 2x the row capacity rounded up to a power of
	// two, so it is never more than half full and only ever grows together
	// with the rows.
	index []uint64

	// Row-indexed storage; every slice has the row capacity as its length
	// and rows [0, n) have been handed out. live[r] counts the live columns
	// row r is present in; 0 means the row is free (on the free list or
	// beyond n) and reads zero in every column and bitset.
	keys   []packet.FlowKey
	merged []uint64
	live   []uint32
	msumm  []uint64 // Distinction: OR of the live columns' summaries
	n      int
	rows   int      // live rows
	free   []uint32 // recycled row ids

	// hint is the row capacity of the next allocation from empty: the row
	// high-water at the last release (0, so minRows, before the first), so
	// a tumbling plan's every window after the first allocates each column
	// once instead of regrowing by doubling.
	hint int

	// cols is the ring of Plan.Size columns; sub-window sw lives in slot
	// sw % Size. The live sub-windows of any plan are a run of at most Size
	// consecutive covered ones, so no slot is ever needed twice.
	cols []column
}

func newTable(cfg Config) table {
	return table{kind: cfg.Kind, counter: cfg.DistinctCounter, cols: make([]column, cfg.Plan.Size)}
}

func grown[T any](s []T, n int) []T {
	g := make([]T, n)
	copy(g, s)
	return g
}

// grow raises the row capacity — from empty to the hint, otherwise
// doubling — extends every live column with it and rebuilds the index.
func (t *table) grow() {
	rows := 2 * len(t.keys)
	if rows == 0 {
		rows = max(t.hint, minRows)
	}
	words := (rows + 63) >> 6
	t.keys = grown(t.keys, rows)
	t.merged = grown(t.merged, rows)
	t.live = grown(t.live, rows)
	if t.msumm != nil {
		t.msumm = grown(t.msumm, 4*rows)
	}
	for i := range t.cols {
		c := &t.cols[i]
		if !c.live {
			// All zeros: cheaper to drop than to copy. column() allocates
			// it again at the capacity of the day.
			c.attr, c.present, c.summ = nil, nil, nil
			continue
		}
		c.attr = grown(c.attr, rows)
		c.present = grown(c.present, words)
		if c.summ != nil {
			c.summ = grown(c.summ, 4*rows)
		}
	}
	old := t.index
	t.index = make([]uint64, 1<<bits.Len(uint(2*rows-1)))
	for _, s := range old {
		if s != 0 {
			t.index[t.emptySlot(uint32(s>>32))] = s
		}
	}
}

// emptySlot returns the first free slot on tag's probe path.
func (t *table) emptySlot(tag uint32) uint32 {
	mask := uint32(len(t.index) - 1)
	i := tag & mask
	for t.index[i] != 0 {
		i = (i + 1) & mask
	}
	return i
}

// row returns k's row id, giving it a fresh (all-zero) row if it has none;
// tag is keyTag(k).
func (t *table) row(k packet.FlowKey, tag uint32) uint32 {
	var i uint32
	if len(t.index) > 0 {
		mask := uint32(len(t.index) - 1)
		for i = tag & mask; ; i = (i + 1) & mask {
			s := t.index[i]
			if s == 0 {
				break
			}
			if uint32(s>>32) == tag && t.keys[uint32(s)-1] == k {
				return uint32(s) - 1
			}
		}
	}
	var r uint32
	if n := len(t.free); n > 0 {
		r, t.free = t.free[n-1], t.free[:n-1]
	} else {
		if t.n == len(t.keys) {
			t.grow()
			i = t.emptySlot(tag)
		}
		r = uint32(t.n)
		t.n++
	}
	t.keys[r] = k
	if t.kind == afr.Min {
		t.merged[r] = math.MaxUint64 // the identity merge folds minima into
	}
	t.rows++
	t.index[i] = uint64(tag)<<32 | uint64(r+1)
	return r
}

// tagBlock is how many keys row lookups and removals hash ahead of the
// probes that use the hashes. Hashing is a dependent chain and a probe is
// one cache-missing load; with the hashes done, the probes of neighbouring
// iterations overlap instead of queueing behind each other's arithmetic
// (measured: O2 3.3 -> 1.9 ms per 31 K new keys).
const tagBlock = 16

// keyTag is k's index tag: the low half of hashing.Place64, whose high half
// picked k's shard, so a shard's keys spread over all of its slots.
func keyTag(k packet.FlowKey) uint32 { return uint32(hashing.Place64(k)) }

// freeRows returns rows whose last live column just retired to the free
// list. Their cells are already zero, so clearing the merged state leaves
// them reading zero everywhere. Index slots are removed by backward shift
// (each follower moves up unless that would carry it before its home), so
// the index never holds tombstones and deletions never force a rehash.
func (t *table) freeRows(rows []uint32) {
	mask := uint32(len(t.index) - 1)
	var tags [tagBlock]uint32
	for len(rows) > 0 {
		blk := rows[:min(len(rows), tagBlock)]
		rows = rows[len(blk):]
		for b, r := range blk {
			tags[b] = keyTag(t.keys[r])
		}
		for b, r := range blk {
			t.merged[r] = 0
			if t.msumm != nil {
				clear(t.msumm[4*r : 4*r+4])
			}
			i := tags[b] & mask
			for uint32(t.index[i]) != r+1 {
				i = (i + 1) & mask
			}
			for j := i; ; {
				j = (j + 1) & mask
				s := t.index[j]
				if s == 0 {
					break
				}
				if home := uint32(s>>32) & mask; (j-home)&mask >= (j-i)&mask {
					t.index[i] = s
					i = j
				}
			}
			t.index[i] = 0
		}
	}
}

// column claims sub-window sw's ring slot and makes sure it has storage at
// the current row capacity.
func (t *table) column(sw uint64) *column {
	c := &t.cols[sw%uint64(len(t.cols))]
	if !c.live {
		c.sw, c.live, c.open = sw, true, true
		if len(c.attr) != len(t.keys) {
			c.attr, c.present = make([]uint64, len(t.keys)), bitsetFor(len(t.keys))
			c.summ = nil
		}
	}
	return c
}

// fold adds one record, and its summary when s is not nil, to row r's cell
// of column c. Fold, not store: a latency-spike copy lands in a (key,
// sub-window) cell that collection also fills, and the cell holds their
// merge — the same value afr.Merged would reach absorbing them one by one.
func (t *table) fold(c *column, r uint32, attr uint64, s *packet.Summary) {
	switch {
	case !c.present.has(r):
		c.present.set(r)
		c.count++
		t.live[r]++
		c.attr[r] = attr
	case t.kind == afr.Frequency || t.kind == afr.Distinction:
		c.attr[r] += attr
	case t.kind == afr.Existence:
		c.attr[r] |= attr
	case t.kind == afr.Max:
		c.attr[r] = max(c.attr[r], attr)
	case t.kind == afr.Min:
		c.attr[r] = min(c.attr[r], attr)
	}
	if s != nil && *s != (packet.Summary{}) && t.kind == afr.Distinction {
		if c.summ == nil {
			c.summ = make([]uint64, 4*len(t.keys))
		}
		cell := c.summ[4*r : 4*r+4 : 4*r+4]
		cell[0] |= s[0]
		cell[1] |= s[1]
		cell[2] |= s[2]
		cell[3] |= s[3]
	}
}

// insert is O2: probe (or add) each record's row and fold the record, and
// its summary from summ (parallel to recs, or empty), into sub-window sw's
// column.
func (t *table) insert(sw uint64, recs []packet.AFR, summ []packet.Summary) {
	if len(recs) == 0 {
		return
	}
	if t.slotTaken(sw) {
		// Only a state restored under a different Plan can leave another
		// sub-window in the slot; drop it rather than merge into it.
		t.retire(t.cols[sw%uint64(len(t.cols))].sw)
	}
	c := t.column(sw)
	var tags [tagBlock]uint32
	for off := 0; off < len(recs); off += tagBlock {
		blk := recs[off:min(len(recs), off+tagBlock)]
		for i := range blk {
			tags[i] = keyTag(blk[i].Key)
		}
		for i := range blk {
			var s *packet.Summary
			if len(summ) > 0 {
				s = &summ[off+i]
			}
			t.fold(c, t.row(blk[i].Key, tags[i]), blk[i].Attr, s)
		}
	}
}

// merge is O3: one kernel pass of sub-window sw's column into merged.
// Absent cells are zero, the identity of sum, max and OR; Min walks the
// present rows instead; Existence needs no value at all (a row is live
// exactly when something contributed).
func (t *table) merge(sw uint64) {
	c := t.held(sw)
	if c == nil {
		return
	}
	c.open = false
	switch t.kind {
	case afr.Frequency, afr.Distinction:
		simd.Sum(t.merged[:t.n], c.attr[:t.n])
	case afr.Max:
		simd.Max(t.merged[:t.n], c.attr[:t.n])
	case afr.Min:
		c.eachPresent(func(r uint32) { t.merged[r] = min(t.merged[r], c.attr[r]) })
	}
	if c.summ != nil {
		if t.msumm == nil {
			t.msumm = make([]uint64, 4*len(t.keys))
		}
		simd.Or(t.msumm[:4*t.n], c.summ[:4*t.n])
	}
}

// eachPresent calls f for every row present in the column, ascending.
func (c *column) eachPresent(f func(r uint32)) {
	for w, word := range c.present {
		for ; word != 0; word &= word - 1 {
			f(uint32(w<<6 + bits.TrailingZeros64(word)))
		}
	}
}

// value is row r's merged statistic, as afr.Merged.Value defines it.
func (t *table) value(r uint32) uint64 {
	switch t.kind {
	case afr.Existence:
		return 1
	case afr.Distinction:
		if t.msumm == nil {
			return t.merged[r]
		}
		if s := [4]uint64(t.msumm[4*r : 4*r+4]); s != [4]uint64{} {
			return afr.DistinctValue(t.merged[r], s, t.counter)
		}
	}
	return t.merged[r]
}

// scan is O4: compare every live row's merged value against the threshold,
// appending the keys that reach it to detected and, when values is
// non-nil, recording every row's value. The key column is read only for
// rows that need their key.
func (t *table) scan(cfg *Config, detected []packet.FlowKey, values map[packet.FlowKey]uint64) []packet.FlowKey {
	for r := uint32(0); r < uint32(t.n); r++ {
		if t.live[r] == 0 {
			continue
		}
		v := t.value(r)
		if values != nil {
			values[t.keys[r]] = v
		}
		if v >= cfg.Threshold {
			detected = append(detected, t.keys[r])
		}
	}
	return detected
}

// retire is O5: drop every column of a sub-window <= upTo. Frequency and
// Distinction's scalar subtract the column back out of merged (exact mod
// 2^64); Max, Min and the summary OR cannot be inverted, so the rows the
// column touched — and only those — are re-folded from the columns that
// stay. Cells are zeroed, rows whose last column went are freed, and a
// table left with no live row gives its storage back (remembering how many
// rows it had, for the next window's single allocation): tumbling plans
// are empty at every window end, and holding a window's worth of rows
// there is retained memory nothing will read.
func (t *table) retire(upTo uint64) {
	for i := range t.cols {
		c := &t.cols[i]
		if !c.live || c.sw > upTo {
			continue
		}
		c.live = false // before the walk: refold must not read it
		if t.kind == afr.Frequency || t.kind == afr.Distinction {
			simd.Sub(t.merged[:t.n], c.attr[:t.n])
		}
		freed := len(t.free)
		c.eachPresent(func(r uint32) {
			c.attr[r] = 0
			hadSumm := c.summ != nil && [4]uint64(c.summ[4*r:4*r+4]) != [4]uint64{}
			if hadSumm {
				clear(c.summ[4*r : 4*r+4])
			}
			if t.live[r]--; t.live[r] == 0 {
				t.free = append(t.free, r)
			} else if t.kind == afr.Max || t.kind == afr.Min || hadSumm {
				t.refold(r)
			}
		})
		t.freeRows(t.free[freed:])
		t.rows -= len(t.free) - freed
		clear(c.present)
		c.count = 0
	}
	if t.rows == 0 && t.n > 0 {
		*t = table{kind: t.kind, counter: t.counter, hint: t.n, cols: t.cols}
		clear(t.cols)
	}
}

// refold rebuilds row r's non-invertible merged state from the live
// columns it is present in.
func (t *table) refold(r uint32) {
	switch t.kind {
	case afr.Max:
		t.merged[r] = 0
	case afr.Min:
		t.merged[r] = math.MaxUint64
	case afr.Distinction:
		clear(t.msumm[4*r : 4*r+4])
	}
	for i := range t.cols {
		c := &t.cols[i]
		if !c.live || !c.present.has(r) {
			continue
		}
		switch t.kind {
		case afr.Max:
			t.merged[r] = max(t.merged[r], c.attr[r])
		case afr.Min:
			t.merged[r] = min(t.merged[r], c.attr[r])
		case afr.Distinction:
			if c.summ != nil {
				simd.Or(t.msumm[4*r:4*r+4], c.summ[4*r:4*r+4])
			}
		}
	}
}

// slotTaken reports that sub-window sw's ring slot holds another live
// sub-window.
func (t *table) slotTaken(sw uint64) bool {
	c := &t.cols[sw%uint64(len(t.cols))]
	return c.live && c.sw != sw
}

// held returns sub-window sw's column, or nil when the table holds none.
func (t *table) held(sw uint64) *column {
	if c := &t.cols[sw%uint64(len(t.cols))]; c.live && c.sw == sw {
		return c
	}
	return nil
}

// appendCells appends one record per row present in sub-window sw's
// column — the row's key and its cell: the record O2 folded the cell
// from, or the fold of several — to cells, and the cells' summaries to
// summ, the slice parallel to cells. It walks the column's present
// bitset, not the rows.
func (t *table) appendCells(cells []packet.AFR, summ []packet.Summary, sw uint64) ([]packet.AFR, []packet.Summary) {
	c := t.held(sw)
	if c == nil {
		return cells, summ
	}
	c.eachPresent(func(r uint32) {
		var s packet.Summary
		if c.summ != nil {
			s = packet.Summary(c.summ[4*r : 4*r+4])
		}
		summ = packet.AppendSummary(summ, len(cells), s)
		cells = append(cells, packet.AFR{Key: t.keys[r], Attr: c.attr[r], SubWindow: sw})
	})
	return cells, summ
}
