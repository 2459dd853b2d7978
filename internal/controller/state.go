// Controller state export and restore for the durability layer
// (internal/durable). A snapshot taken at a sub-window boundary plus the
// write-ahead log of everything ingested since is enough to rebuild the
// controller to the exact pre-crash state: merged values are rebuilt by
// re-folding the stored contributions into their columns (every merge
// kind is order-insensitive, so the rebuild is exact), and sequence-number
// dedup makes replaying batches the snapshot already covers harmless.

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

// ExportState snapshots the controller's complete restorable state: the
// key-value table, routed-but-unmerged records, open sub-window arrival
// state and finished sub-window accounting. Output ordering is fully
// deterministic (keys by packetKeyCmp, everything else by sub-window and
// sequence), so encoding the snapshot is byte-stable regardless of shard
// count or ingest interleaving. ThroughLSN is left zero; the durable layer
// stamps it with its own log position.
func (c *Controller) ExportState() *wire.Snapshot {
	c.finishMu.Lock()
	defer c.finishMu.Unlock()

	// The table only changes under finishMu, so the sizes counted here
	// still hold when the shards are walked again below.
	rows, cells := 0, 0
	for _, sh := range c.shards {
		rows += sh.table.rows
		cells += sh.table.cells()
	}
	s := &wire.Snapshot{}
	if rows > 0 {
		s.Entries = make([]wire.SnapEntry, 0, rows)
	}
	slab := make([]wire.SnapContrib, 0, cells)
	for _, sh := range c.shards {
		sh.mu.Lock()
		s.Entries, slab = sh.table.appendEntries(s.Entries, slab)
		for _, recs := range sh.pending {
			s.Pending = append(s.Pending, recs...)
		}
		sh.mu.Unlock()
	}
	slices.SortFunc(s.Entries, func(a, b wire.SnapEntry) int { return packetKeyCmp(a.Key, b.Key) })
	slices.SortFunc(s.Pending, comparePending)

	c.mu.Lock()
	s.LastFinished, s.HasFinished = c.lastFin, c.hasFin
	for sw, r := range c.ledger {
		r.mu.Lock()
		if r.arrived && !r.finished {
			sd := wire.SnapDedup{
				SW:        sw,
				Expected:  int32(r.expected),
				Recovered: uint32(r.recovered),
				Shed:      uint32(r.shed),
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
			})
		}
		r.mu.Unlock()
	}
	c.mu.Unlock()
	slices.SortFunc(s.Dedups, func(a, b wire.SnapDedup) int { return cmp.Compare(a.SW, b.SW) })
	slices.SortFunc(s.Rels, func(a, b wire.SnapRel) int { return cmp.Compare(a.SW, b.SW) })
	return s
}

// comparePending orders routed-but-unmerged records by sub-window and
// sequence. Spike copies carry no sequence number of their own (they all
// read 0), so ties fall through to the rest of the record: the order is
// total, and the snapshot bytes do not depend on shard count or map order.
func comparePending(a, b packet.AFR) int {
	if c := cmp.Compare(a.SubWindow, b.SubWindow); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Seq, b.Seq); c != 0 {
		return c
	}
	if c := packetKeyCmp(a.Key, b.Key); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Attr, b.Attr); c != 0 {
		return c
	}
	return slices.Compare(a.Distinct[:], b.Distinct[:])
}

// RestoreState replaces the controller's state with a snapshot's. Rows are
// re-routed by hash, so a snapshot exported at one shard count restores
// correctly at another. The configuration (plan, kind, detector) is NOT
// carried by snapshots — the restored controller must be built with the
// same Config the exporter used, or merged values will diverge.
func (c *Controller) RestoreState(s *wire.Snapshot) {
	c.finishMu.Lock()
	defer c.finishMu.Unlock()

	for _, sh := range c.shards {
		sh.mu.Lock()
		sh.table = newTable(c.cfg, sh.table.hint)
		sh.pending = make(map[uint64][]packet.AFR)
		sh.mu.Unlock()
	}
	for i := range s.Entries {
		sh := c.shards[c.shardIndex(s.Entries[i].Key)]
		sh.mu.Lock()
		sh.table.load(&s.Entries[i])
		sh.mu.Unlock()
	}
	for _, sh := range c.shards {
		sh.mu.Lock()
		sh.table.mergeAll()
		sh.mu.Unlock()
	}
	for _, r := range s.Pending {
		sh := c.shards[c.shardIndex(r.Key)]
		sh.mu.Lock()
		sh.pending[r.SubWindow] = append(sh.pending[r.SubWindow], r)
		sh.mu.Unlock()
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	c.lastFin, c.hasFin = s.LastFinished, s.HasFinished
	c.ledger = make(map[uint64]*subWindow)
	for _, sd := range s.Dedups {
		r := c.recordFor(sd.SW)
		// A sub-window the snapshot never finished keeps collecting, even
		// at or below LastFinished (the first finish may skip ahead).
		r.arrived, r.finished = true, false
		r.expected, r.recovered, r.shed = int(sd.Expected), int(sd.Recovered), int(sd.Shed)
		for _, seq := range sd.Seen {
			r.seen.add(seq)
		}
	}
	for _, sr := range s.Rels {
		r := c.recordFor(sr.SW)
		r.charged = true
		r.rel = metrics.Reliability{
			Expected:  int(sr.Expected),
			Received:  int(sr.Received),
			Recovered: int(sr.Recovered),
			Missing:   int(sr.Missing),
			Shed:      int(sr.Shed),
		}
	}
}
