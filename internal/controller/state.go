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
	"omniwindow/internal/obs"
	"omniwindow/internal/packet"
	"omniwindow/internal/wire"
)

// NoteShed records that admission control dropped n AFRs destined for a
// sub-window (attributed by header peek before the discard). Notes for a
// still-open sub-window flow into its final accounting; notes for an
// already-finished one amend the retained reliability snapshot but cannot
// retroactively change windows that were already emitted.
func (c *Controller) NoteShed(sw uint64, n int) {
	if n <= 0 {
		return
	}
	c.obs.Shed.Add(int64(n))
	c.obs.Ring.Record(obs.StageShed, sw, -1, int64(n))
	c.mu.Lock()
	if d, live := c.dedups[sw]; live {
		c.mu.Unlock()
		d.mu.Lock()
		d.shed += n
		d.mu.Unlock()
		return
	}
	if rel, done := c.rel[sw]; done {
		rel.Shed += n
		c.rel[sw] = rel
	}
	c.mu.Unlock()
}

// NoteLost records that n units of a sub-window's durable record are
// unrecoverable (quarantined WAL segments, a degraded-durability gap the
// standby cannot replay). Unlike shed — which is pressure the live path
// already accounted — lost is damage: it always lands in the sub-window's
// Missing tally, creating the reliability entry if the sub-window was
// never announced, so every window spanning it assembles as Incomplete
// instead of silently wrong.
func (c *Controller) NoteLost(sw uint64, n int) {
	if n <= 0 {
		return
	}
	c.mu.Lock()
	// Works for open and finished sub-windows alike: finishOne merges a
	// pre-charged entry into the dedup's final snapshot, and the fill
	// loop treats the entry as already-accounted.
	rel := c.rel[sw]
	rel.Missing += n
	c.rel[sw] = rel
	c.mu.Unlock()
}

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
	for sw, d := range c.dedups {
		d.mu.Lock()
		sd := wire.SnapDedup{
			SW:        sw,
			Expected:  int32(d.expected),
			Recovered: uint32(d.recovered),
			Shed:      uint32(d.shed),
		}
		if n := d.seen.size(); n > 0 {
			// appendSorted iterates the bitset in ascending order, so the
			// snapshot bytes stay identical to the sorted-map encoding.
			sd.Seen = d.seen.appendSorted(make([]uint32, 0, n))
		}
		d.mu.Unlock()
		s.Dedups = append(s.Dedups, sd)
	}
	for sw, r := range c.rel {
		s.Rels = append(s.Rels, wire.SnapRel{
			SW:        sw,
			Expected:  int32(r.Expected),
			Received:  uint32(r.Received),
			Recovered: uint32(r.Recovered),
			Missing:   uint32(r.Missing),
			Shed:      uint32(r.Shed),
		})
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
	c.dedups = make(map[uint64]*dedup)
	c.rel = make(map[uint64]metrics.Reliability)
	c.lastFin, c.hasFin = s.LastFinished, s.HasFinished
	for _, sd := range s.Dedups {
		d := &dedup{
			expected:  int(sd.Expected),
			recovered: int(sd.Recovered),
			shed:      int(sd.Shed),
		}
		for _, seq := range sd.Seen {
			d.seen.add(seq)
		}
		c.dedups[sd.SW] = d
	}
	for _, sr := range s.Rels {
		c.rel[sr.SW] = metrics.Reliability{
			Expected:  int(sr.Expected),
			Received:  int(sr.Received),
			Recovered: int(sr.Recovered),
			Missing:   int(sr.Missing),
			Shed:      int(sr.Shed),
		}
	}
	c.mu.Unlock()
}
