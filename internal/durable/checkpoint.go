// Checkpoints. A finished sub-window's column never changes again, and the
// log already holds the records its finish folded, so a checkpoint writes
// only the manifest, checkpoint.snap — the commit point: the controller
// state but its columns (ledger, pending records, last finish) and the
// live list. Recovery rebuilds each live column from the log (fold). A
// column the log no longer holds whole — a segment set aside as rotted, a
// degraded stretch — is re-logged from the live state as one column record
// (wire.WALColumn), which supersedes every earlier record of its
// sub-window.
//
// The write order, and what a crash at each point leaves behind:
//
//	wal-append         a torn column record past ThroughLSN: replay skips
//	                   it, and the next checkpoint re-logs its column
//	checkpoint-temp    a torn manifest temp file: the old manifest stands
//	checkpoint-rename  a whole temp file, not renamed: the old manifest
//	                   stands
//	wal-truncate       the new manifest landed; segments it no longer needs
//	                   remain, and the next checkpoint deletes them
//
// A segment is kept while it holds a record of a sub-window that has not
// retired — one not yet finished, or finished and still live — unless a
// column record in a later segment supersedes it.

package durable

import (
	"fmt"
	"math"
	"path/filepath"
	"slices"
	"time"

	"omniwindow/internal/packet"
	"omniwindow/internal/wire"
)

// noCut is CutFrom while the log holds every live column's records whole.
const noCut = math.MaxUint64

// CutFrom is the oldest sub-window whose column the next checkpoint must
// re-log: none (math.MaxUint64) while the log holds every live column
// whole; lower once it lost records.
func (s *Store) CutFrom() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cutFrom
}

// damageLocked notes that the log may lack records of sub-window from on:
// the next checkpoint re-logs those live columns, and commitLocked has the
// columns of the sub-windows then pending re-logged as they finish.
func (s *Store) damageLocked(from uint64) {
	s.cutFrom, s.cutTo = min(s.cutFrom, from), noCut
}

// Checkpoint commits snap, a cut of the controller state
// (controller.ExportCut): its columns at or past CutFrom are logged as
// column records (any others are not written), the rest goes to the
// manifest, stamped with the LSN high-water mark as ThroughLSN — the
// caller exports after logging everything it ingested — and the segments
// the manifest no longer needs are deleted.
func (s *Store) Checkpoint(snap *wire.Snapshot) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.checkpointLocked(snap)
}

func (s *Store) checkpointLocked(snap *wire.Snapshot) error {
	start := time.Now()
	if s.dead {
		return s.deadErr
	}
	if s.writerTerm != s.curTerm {
		s.fenced.Add(1)
		return ErrFenced
	}
	// ThroughLSN covers every frame issued: the group must be on disk.
	if err := s.flushLocked(); err != nil {
		return err
	}
	written := 0
	for _, sw := range snap.Live {
		i := slices.IndexFunc(snap.Columns, func(c wire.SnapColumn) bool { return c.SW == sw })
		switch {
		case sw < s.cutFrom:
		case i < 0:
			return fmt.Errorf("durable: checkpoint: sub-window %d must be re-logged but the cut does not carry it", sw)
		default:
			col := &snap.Columns[i]
			n, err := s.appendLocked(&wire.WALRecord{Type: wire.WALColumn, SubWindow: sw, AFRs: col.Cells, Summaries: col.Summaries})
			if err != nil {
				return err
			}
			written += n
		}
	}
	snap.ThroughLSN = s.lsn.Load()
	snap.Term = s.writerTerm
	n, err := s.writeManifestLocked(snap)
	if err != nil {
		return err
	}
	s.commitLocked(snap)
	if s.crash != nil && s.crash("wal-truncate") {
		return s.die(nil, nil, "wal-truncate")
	}
	s.truncateLocked()
	s.checkpoints.Inc()
	s.ckptBytes.Add(int64(written + n))
	s.ckptLat.Observe(time.Since(start))
	return nil
}

// writeManifestLocked atomically replaces the manifest (snap, whose
// columns the encoding leaves out) through a temp file and a rename.
func (s *Store) writeManifestLocked(snap *wire.Snapshot) (int, error) {
	s.enc = wire.EncodeSnapshot(s.enc[:0], snap)
	tmp := filepath.Join(s.dir, checkpointTemp)
	if s.crash != nil && s.crash("checkpoint-temp") {
		f, _ := s.fsys.Create(tmp)
		return 0, s.die(f, s.enc, "checkpoint-temp")
	}
	if err := s.writeFile(tmp, s.enc); err != nil {
		return 0, fmt.Errorf("durable: checkpoint: %w", err)
	}
	if s.crash != nil && s.crash("checkpoint-rename") {
		return 0, s.die(nil, nil, "checkpoint-rename")
	}
	if err := s.rename(tmp, filepath.Join(s.dir, checkpointName)); err != nil {
		return 0, fmt.Errorf("durable: checkpoint: %w", err)
	}
	return len(s.enc), nil
}

// commitLocked adopts a committed manifest: its live list and last finish
// decide which segments stay, and CutFrom moves past it — unless records
// were lost since the last commit (cutTo is noCut) while sub-windows had
// records pending (snap.Pending): then each column up to the newest of
// those (cutTo, exclusive) is re-logged as it finishes. Recovery adopts a
// loaded manifest the same way, since whether its pending sub-windows had
// lost records is not on disk.
func (s *Store) commitLocked(snap *wire.Snapshot) {
	s.live = append(s.live[:0], snap.Live...)
	s.lastFin, s.hasFin = snap.LastFinished, snap.HasFinished
	if s.cutTo == noCut {
		s.cutTo = 0
		for _, r := range snap.Pending {
			s.cutTo = max(s.cutTo, r.SubWindow+1)
		}
	}
	next := uint64(0)
	if snap.HasFinished {
		next = snap.LastFinished + 1
	}
	if s.cutFrom = noCut; next < s.cutTo {
		s.cutFrom = next
	} else {
		s.cutTo = 0
	}
}

// truncateLocked seals the active segment and deletes every segment the
// committed manifest no longer needs (see the file comment); one a crash
// or a failed remove leaves behind, the next checkpoint deletes.
func (s *Store) truncateLocked() {
	s.sealLocked()
	keep := s.segs[:0]
	for i, g := range s.segs {
		needed := slices.ContainsFunc(g.sws, func(sw uint64) bool {
			retired := s.hasFin && sw <= s.lastFin && !slices.Contains(s.live, sw)
			return !retired && !slices.ContainsFunc(s.segs[i+1:], func(l segment) bool { return slices.Contains(l.cols, sw) })
		})
		if needed || s.remove(g.path) != nil {
			keep = append(keep, g)
		}
	}
	clear(s.segs[len(keep):])
	s.segs = keep
}

// Heal re-enters durable mode after a degraded spell: the log rotates and
// snap, a full cut, is checkpointed with every live column re-logged. On
// failure the store is still usable, and the heal is best tried again.
func (s *Store) Heal(snap *wire.Snapshot) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead {
		return s.deadErr
	}
	if err := s.flushLocked(); err != nil {
		return err
	}
	s.sealLocked()
	s.damageLocked(0)
	return s.checkpointLocked(snap)
}

// loadCheckpointLocked is recovery's manifest loader: nil when the
// manifest is missing, unreadable (its bytes may be intact, so it stays in
// place) or corrupt (then it is quarantined, and recovery proceeds from
// the WAL, the missing coverage surfacing as a leading LostLSNRange).
func (s *Store) loadCheckpointLocked() *wire.Snapshot {
	s.live, s.lastFin, s.hasFin = s.live[:0], 0, false
	path := filepath.Join(s.dir, checkpointName)
	buf, err := s.readFile(path, nil)
	if err != nil {
		if !isMissing(err) {
			s.scrubErrs.Add(1)
		}
		return nil
	}
	m, err := wire.DecodeSnapshot(buf)
	if err != nil {
		s.quarantineLocked(path)
		return nil
	}
	s.cutTo = noCut
	s.commitLocked(m)
	return m
}

// fold rebuilds a manifest's live columns from the records at or below its
// ThroughLSN, fed in LSN order. A column is its sub-window's newest column
// record if it has one; otherwise its AFRs, each sequence number's first
// arrival only (retransmits and duplicates are logged too), and its spike
// copies, up to the first finish at or past it — the live controller
// dropped anything later as late. from and to are the generations the
// column starts at (its column record, else its first trigger; 0 when
// neither survives) and is closed at: a segment set aside between them may
// have held part of the column.
type fold map[uint64]*foldCol

type foldCol struct {
	cells    []packet.AFR
	summ     []packet.Summary // parallel to cells, or empty
	seen     map[uint32]bool  // nil: gather no cells, only from, to and closed
	closed   bool
	from, to uint64
}

func (f fold) add(gen uint64, r *wire.WALRecord) {
	c := f[r.SubWindow]
	switch {
	case r.Type == wire.WALFinish:
		for sw, c := range f {
			if !c.closed && sw <= r.SubWindow {
				c.closed, c.to = true, gen
			}
		}
	case c == nil:
	case r.Type == wire.WALColumn:
		*c = foldCol{cells: r.AFRs, summ: r.Summaries, closed: true, from: gen, to: gen}
	case r.Type == wire.WALTrigger && c.from == 0 && !c.closed:
		c.from = gen
	case c.closed, c.seen == nil:
	case r.Type == wire.WALSpike:
		c.summ = packet.AppendSummaries(c.summ, len(c.cells), r.Summaries, len(r.AFRs))
		c.cells = append(c.cells, r.AFRs...)
	case r.Type == wire.WALAFRBatch:
		for i, a := range r.AFRs {
			if !c.seen[a.Seq] {
				c.seen[a.Seq] = true
				c.summ = packet.AppendSummary(c.summ, len(c.cells), packet.SummaryAt(r.Summaries, i))
				c.cells = append(c.cells, a)
			}
		}
	}
}

// apply hands m its columns. A column a segment set aside may have held
// part of is not half-loaded: its sub-window leaves the live list and
// becomes a LostLSNRange of its own (no LSNs).
func (f fold) apply(s *Store, m *wire.Snapshot) {
	m.Live = slices.DeleteFunc(m.Live, func(sw uint64) bool {
		c := f[sw]
		if slices.ContainsFunc(s.setAside, func(g uint64) bool { return g >= c.from && (!c.closed || g <= c.to) }) {
			s.lost = append(s.lost, LostLSNRange{SWLow: sw, SWHigh: sw})
			return true
		}
		m.Columns = append(m.Columns, wire.SnapColumn{SW: sw, Cells: c.cells, Summaries: c.summ})
		return false
	})
}

// Scrub verifies the manifest's seal and every frame of the active segment
// and of each segment sealed since the last scrub, catching bit rot while
// the data is still redundant in memory: each segment is read back once
// after it seals, no boundary reads back the whole log. Every file is read
// into the store's one read buffer (scrubRead). A rotted file is set
// aside, and the next checkpoint re-logs a rotted segment's columns. A
// corrupt file is reported in the first return; one that could not be read
// is counted as a scrub error and reported in the second, not set aside,
// since its bytes may be intact. The group is written first, and a failed
// write is reported in the second return too.
func (s *Store) Scrub() (corrupt int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead {
		return 0, nil
	}
	// A fenced writer must not quarantine files the new term-holder is
	// writing: its view of the log is stale.
	if s.writerTerm != s.curTerm {
		return 0, ErrFenced
	}
	err = s.flushLocked()
	path := filepath.Join(s.dir, checkpointName)
	buf, rerr := s.scrubRead(path)
	switch {
	case isMissing(rerr):
	case rerr != nil:
		s.scrubErrs.Add(1)
		err = rerr
	case wire.VerifySnapshot(buf) != nil:
		corrupt++
		s.quarantineLocked(path)
	}
	from := s.scrubbed
	if len(s.segs) > 0 {
		s.scrubbed = s.segs[len(s.segs)-1].gen // read again next time: it may still grow
	}
	// Newest first: setting a segment aside moves no index still to visit.
	for i := len(s.segs) - 1; i >= 0 && s.segs[i].gen >= from; i-- {
		g := s.segs[i]
		if g.size <= wire.SegmentHeaderSize {
			continue
		}
		buf, rerr := s.scrubRead(g.path)
		switch {
		case isMissing(rerr):
		case rerr != nil:
			s.scrubErrs.Add(1)
			err = rerr
		case !framesIntact(buf, g.size):
			corrupt++
			if len(g.sws) > 0 {
				s.damageLocked(slices.Min(g.sws))
			}
			s.quarantineLocked(g.path)
		}
	}
	return corrupt, err
}

// scrubRead reads path into the scrub's read buffer, which is kept for the
// next read unless the file outgrew a segment and a write group (a column
// record re-logged after damage can): the buffer the store retains is
// bounded by the segment cap, not by a boundary's records.
func (s *Store) scrubRead(path string) ([]byte, error) {
	buf, err := s.readFile(path, s.rbuf)
	if int64(cap(buf)) <= s.segBytes+groupBytes {
		s.rbuf = buf
	}
	return buf, err
}
