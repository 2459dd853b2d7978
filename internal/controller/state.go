// Controller state export and restore for the durability layer
// (internal/durable). A cut, its live columns (each the records logged for
// it) and the write-ahead log of everything ingested since rebuild the
// controller to the exact pre-crash state: merged values are rebuilt by
// folding the records back into their columns and merging those (every
// merge kind is order-insensitive, so the rebuild is exact), and
// sequence-number dedup counts each logged AFR once.

package controller

import (
	"cmp"
	"slices"

	"omniwindow/internal/metrics"
	"omniwindow/internal/packet"
	"omniwindow/internal/wire"
)

// LastFinished reports the highest sub-window FinishSubWindow has
// completed; ok is false before the first finish.
func (c *Controller) LastFinished() (sw uint64, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastFin, c.hasFin
}

// ExportState is the full cut: ExportCut over every live column.
func (c *Controller) ExportState() *wire.Snapshot { return c.ExportCut(0) }

// ExportCut cuts the controller's restorable state at a boundary: the
// columns of live sub-windows >= from, each one column record (exportColumn),
// the list of every live sub-window, routed-but-unmerged records, open
// sub-window arrival state and finished sub-window accounting. A cut from just past the
// previous cut's LastFinished carries only the columns finished since,
// from 0 all, from math.MaxUint64 none. Output ordering is deterministic
// (columns by sub-window, cells by packetKeyCmp, everything else by
// sub-window and sequence), so encoding the cut is byte-stable regardless
// of shard count or ingest interleaving. ThroughLSN is left zero; the
// durable layer stamps it with its own log position.
func (c *Controller) ExportCut(from uint64) *wire.Snapshot {
	c.finishMu.Lock()
	defer c.finishMu.Unlock()

	// The tables change under finishMu or in a fold ahead: holding every
	// fold lock joins the folds and holds new ones off while the tables are
	// read. A folded-ahead column is open (not merged yet), so it is not
	// Live: its records are all still Pending, as if no fold had run.
	s := &wire.Snapshot{}
	for _, sh := range c.shards {
		sh.foldMu.Lock()
		for i := range sh.table.cols {
			if col := &sh.table.cols[i]; col.live && !col.open && !slices.Contains(s.Live, col.sw) {
				s.Live = append(s.Live, col.sw)
			}
		}
	}
	slices.Sort(s.Live)
	for _, sw := range s.Live {
		if sw >= from {
			s.Columns = append(s.Columns, c.exportColumn(sw))
		}
	}
	for _, sh := range c.shards {
		sh.foldMu.Unlock()
	}
	var pend []summarized
	for _, sh := range c.shards {
		sh.mu.Lock()
		for _, p := range sh.pending {
			for i := range p.recs {
				pend = append(pend, summarized{p.recs[i], packet.SummaryAt(p.summ, i)})
			}
		}
		sh.mu.Unlock()
	}
	slices.SortFunc(pend, comparePending)
	for _, p := range pend {
		s.PendingSummaries = packet.AppendSummary(s.PendingSummaries, len(s.Pending), p.summ)
		s.Pending = append(s.Pending, p.rec)
	}

	c.mu.Lock()
	s.LastFinished, s.HasFinished = c.lastFin, c.hasFin
	s.Dedups = make([]wire.SnapDedup, 0, len(c.ledger))
	s.Rels = make([]wire.SnapRel, 0, len(c.ledger))
	for sw, r := range c.ledger {
		r.mu.Lock()
		if r.arrived && !r.finished {
			sd := wire.SnapDedup{
				SW:        sw,
				Expected:  int32(r.expected),
				Recovered: uint32(r.recovered),
				Shed:      uint32(r.shed),
				Spikes:    uint32(r.spikes),
			}
			if n := r.seen.size(); n > 0 {
				sd.Seen = r.seen.appendSorted(make([]uint32, 0, n))
			}
			s.Dedups = append(s.Dedups, sd)
		}
		if r.charged {
			s.Rels = append(s.Rels, wire.SnapRel{
				SW:        sw,
				Expected:  int32(r.rel.Expected),
				Received:  uint32(r.rel.Received),
				Recovered: uint32(r.rel.Recovered),
				Missing:   uint32(r.rel.Missing),
				Shed:      uint32(r.rel.Shed),
				Spikes:    uint32(r.spikes),
			})
		}
		r.mu.Unlock()
	}
	c.mu.Unlock()
	slices.SortFunc(s.Dedups, func(a, b wire.SnapDedup) int { return cmp.Compare(a.SW, b.SW) })
	slices.SortFunc(s.Rels, func(a, b wire.SnapRel) int { return cmp.Compare(a.SW, b.SW) })
	return s
}

// exportColumn gathers sub-window sw's column from every shard's present
// bitset, its cells in key order. A column's keys are distinct, so any
// correct order is the one order and the cut bytes do not depend on the
// sort. Caller holds finishMu and every shard's fold lock.
func (c *Controller) exportColumn(sw uint64) wire.SnapColumn {
	n := 0
	for _, sh := range c.shards {
		if col := sh.table.held(sw); col != nil {
			n += col.count
		}
	}
	cells := make([]packet.AFR, 0, n)
	var summ []packet.Summary
	for _, sh := range c.shards {
		cells, summ = sh.table.appendCells(cells, summ, sw)
	}
	if len(summ) == 0 {
		slices.SortFunc(cells, func(a, b packet.AFR) int { return packetKeyCmp(a.Key, b.Key) })
	} else {
		// Each summary must move with its cell: sort them as pairs.
		pairs := make([]summarized, len(cells))
		for i := range cells {
			pairs[i] = summarized{cells[i], summ[i]}
		}
		slices.SortFunc(pairs, func(a, b summarized) int { return packetKeyCmp(a.rec.Key, b.rec.Key) })
		for i, p := range pairs {
			cells[i], summ[i] = p.rec, p.summ
		}
	}
	return wire.SnapColumn{SW: sw, Records: []*wire.WALRecord{{Type: wire.WALColumn, SubWindow: sw, AFRs: cells, Summaries: summ}}}
}

// summarized is a record with its summary, for sorts that must move the
// two together.
type summarized struct {
	rec  packet.AFR
	summ packet.Summary
}

// comparePending orders routed-but-unmerged records by sub-window and
// sequence. Spike copies carry no sequence number of their own (they all
// read 0), so ties fall through to the rest of the record and then its
// summary: the order is total, and the snapshot bytes do not depend on
// shard count or map order.
func comparePending(a, b summarized) int {
	if c := cmp.Compare(a.rec.SubWindow, b.rec.SubWindow); c != 0 {
		return c
	}
	if c := cmp.Compare(a.rec.Seq, b.rec.Seq); c != 0 {
		return c
	}
	if c := packetKeyCmp(a.rec.Key, b.rec.Key); c != 0 {
		return c
	}
	if c := cmp.Compare(a.rec.Attr, b.rec.Attr); c != 0 {
		return c
	}
	return slices.Compare(a.summ[:], b.summ[:])
}

// RestoreState applies a cut (ExportCut) to a freshly built controller:
// the columns it carries and lists as live, its ledger, pending records
// and last finish. A full cut restores the exporter's state; recovery
// applies a manifest whose live columns are the records the durable log
// holds for them, and route alone decides what each counts for. They are
// re-routed by hash and go through O2 and O3 (table.insert, table.merge),
// the path a finish folds records by, so a cut exported at one shard count
// applies correctly at another; a column the live list does not name is
// skipped. The configuration (plan, kind, detector) is NOT carried by
// cuts — the restored controller must be built with the same Config the
// exporter used, or merged values will diverge. Under another Plan two
// live columns may map to one ring slot; O2 then retires the column
// holding it, and every older one, rather than merge into it.
func (c *Controller) RestoreState(s *wire.Snapshot) {
	c.finishMu.Lock()
	defer c.finishMu.Unlock()

	parts := make([]pendingRecs, len(c.shards))
	var seen seqSet
	for _, col := range s.Columns {
		if !slices.Contains(s.Live, col.SW) {
			continue
		}
		seen.reset()
		for _, r := range col.Records {
			c.route(parts, r, &seen)
		}
		for i, sh := range c.shards { // an empty column is inserted and merged too
			sh.foldMu.Lock()
			sh.mu.Lock()
			sh.table.insert(col.SW, parts[i].recs, parts[i].summ)
			sh.table.merge(col.SW)
			sh.rows = sh.table.rows
			sh.mu.Unlock()
			sh.foldMu.Unlock()
			parts[i] = pendingRecs{recs: parts[i].recs[:0], summ: parts[i].summ[:0]}
		}
	}
	c.route(parts, &wire.WALRecord{AFRs: s.Pending, Summaries: s.PendingSummaries}, nil)
	for i, sh := range c.shards {
		sh.appendPart(&parts[i], 0, false)
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	c.lastFin, c.hasFin = s.LastFinished, s.HasFinished
	for _, sd := range s.Dedups {
		r := c.recordFor(sd.SW)
		// A sub-window the snapshot never finished keeps collecting, even
		// at or below LastFinished (a controller's first finish need not
		// be its oldest sub-window's).
		r.arrived, r.finished = true, false
		r.expected, r.recovered, r.shed, r.spikes = int(sd.Expected), int(sd.Recovered), int(sd.Shed), int(sd.Spikes)
		for _, seq := range sd.Seen {
			r.seen.add(seq)
		}
	}
	for _, sr := range s.Rels {
		r := c.recordFor(sr.SW)
		r.charged, r.spikes = true, int(sr.Spikes)
		r.rel = metrics.Reliability{
			Expected:  int(sr.Expected),
			Received:  int(sr.Received),
			Recovered: int(sr.Recovered),
			Missing:   int(sr.Missing),
			Shed:      int(sr.Shed),
		}
	}
}

// route appends the AFRs of r that count to their shards' parts, by the
// live controller's rule: a batch's on their sequence number's first
// arrival only (seen; retransmits and duplicates are logged too), any
// other record's as they are — a spike's Seq is the packet's, a column's
// cells carry none. A column record, the whole column as of its cut,
// supersedes what came before it.
func (c *Controller) route(parts []pendingRecs, r *wire.WALRecord, seen *seqSet) {
	if r.Type == wire.WALColumn {
		clear(parts)
		seen.reset()
	}
	for i, a := range r.AFRs {
		if r.Type == wire.WALAFRBatch && !seen.add(a.Seq) {
			continue
		}
		p := &parts[c.shardIndex(a.Key)]
		p.summ = packet.AppendSummary(p.summ, len(p.recs), packet.SummaryAt(r.Summaries, i))
		p.recs = append(p.recs, a)
	}
}
