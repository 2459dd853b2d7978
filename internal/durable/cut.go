// Checkpoints as cuts. A finished sub-window's column never changes again,
// so a checkpoint writes only the columns finished since the previous one:
// one cut file holding them (a wire.Snapshot with Columns), then the
// manifest, checkpoint.snap — the commit point. The manifest holds
// everything else the controller keeps (ledger, pending records, last
// finish) and the live list: every live sub-window and the generation of
// the cut file holding its column. Recovery loads the manifest and, from
// each cut file it names, the columns it assigns to that file; a cut file
// no manifest names any more is deleted, and one left behind by a crash is
// removed at open.
//
// The write order, and what a crash at each point leaves behind:
//
//	cut-write          a torn cut file no manifest names: debris
//	checkpoint-temp    a torn manifest temp file: the old manifest stands
//	checkpoint-rename  a whole temp file, not renamed: the old manifest
//	                   stands and the new cut file is debris
//	cut-delete         the new manifest landed; the cut files it no longer
//	                   names are debris
//	wal-truncate       segments the manifest covers remain; replay skips
//	                   their frames by LSN
//
// A cut file is named by its generation, not by its sub-windows: a full
// cut (heal, a damaged recovery's re-cover, a promoted writer) re-cuts
// sub-windows whose file the committed manifest still names, and must not
// overwrite it before the new manifest lands.

package durable

import (
	"fmt"
	"path/filepath"
	"slices"
	"time"

	"omniwindow/internal/wire"
)

const (
	cutPrefix = "cut-"
	cutSuffix = ".snap"
)

func (s *Store) cutPath(gen uint64) string { return s.genPath(cutPrefix, gen, cutSuffix) }

// CutFrom is the oldest sub-window whose column the next checkpoint must
// carry: just past the last checkpoint's LastFinished, lower once the
// scrub has set a rotted cut file aside, and 0 (the whole table) before
// the first checkpoint, after a rotted manifest and after a new term is
// adopted — a promoted writer's columns are its own, not the ones on disk.
func (s *Store) CutFrom() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cutFrom
}

// Checkpoint commits snap, a cut of the controller state
// (controller.ExportCut): the columns it carries go to a new cut file, the
// rest to the manifest, and then the cut files and the segments the
// manifest supersedes are deleted. snap.ThroughLSN is stamped with the
// current LSN high-water mark — every frame logged so far is folded into
// the state by construction (the caller exports after logging everything
// it ingested) — and each snap.Live entry with the cut file holding it. A
// live sub-window the cut does not carry must be held by a cut file the
// committed manifest names: CutFrom says which ones are.
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
	snap.ThroughLSN = s.lsn.Load()
	snap.Term = s.writerTerm
	gen := s.cutGen + 1
	if err := s.nameCutsLocked(snap, gen); err != nil {
		return err
	}
	written := 0
	if len(snap.Columns) > 0 {
		s.cutGen = gen // never reuse the name, even on failure
		s.cuts = append(s.cuts, gen)
		n, err := s.writeCutLocked(snap, gen)
		if err != nil {
			return err
		}
		written += n
	}
	n, err := s.writeManifestLocked(snap)
	if err != nil {
		return err
	}
	written += n
	s.live = append(s.live[:0], snap.Live...)
	s.cutFrom = 0
	if snap.HasFinished {
		s.cutFrom = snap.LastFinished + 1
	}
	if s.crash != nil && s.crash("cut-delete") {
		return s.die(nil, nil, "cut-delete")
	}
	s.dropCutsLocked()
	if s.crash != nil && s.crash("wal-truncate") {
		return s.die(nil, nil, "wal-truncate")
	}
	s.truncateLocked()
	s.checkpoints.Inc()
	s.ckptBytes.Add(int64(written))
	s.ckptLat.Observe(time.Since(start))
	return nil
}

// nameCutsLocked stamps each of snap's live sub-windows with the cut file
// holding its column: the new cut (gen) for the ones snap carries, the
// committed manifest's for the rest. A live column neither holds is an
// error — the manifest would name data no file has.
func (s *Store) nameCutsLocked(snap *wire.Snapshot, gen uint64) error {
	for i := range snap.Live {
		l := &snap.Live[i]
		if slices.ContainsFunc(snap.Columns, func(c wire.SnapColumn) bool { return c.SW == l.SW }) {
			l.Cut = gen
			continue
		}
		j := slices.IndexFunc(s.live, func(h wire.SnapLive) bool { return h.SW == l.SW })
		if j < 0 {
			return fmt.Errorf("durable: checkpoint: sub-window %d is live but no cut carries it", l.SW)
		}
		l.Cut = s.live[j].Cut
	}
	return nil
}

// writeCutLocked writes the cut file of generation gen: snap's columns. It
// is written in place — no manifest names it yet, so a torn one is debris,
// never damage.
func (s *Store) writeCutLocked(snap *wire.Snapshot, gen uint64) (int, error) {
	cut := wire.Snapshot{
		ThroughLSN: snap.ThroughLSN, Term: snap.Term,
		LastFinished: snap.LastFinished, HasFinished: snap.HasFinished,
		Columns: snap.Columns,
	}
	s.enc = wire.EncodeSnapshot(s.enc[:0], &cut)
	path := s.cutPath(gen)
	if s.crash != nil && s.crash("cut-write") {
		f, _ := s.fsys.Create(path)
		return 0, s.die(f, s.enc, "cut-write")
	}
	if err := s.writeFile(path, s.enc); err != nil {
		return 0, fmt.Errorf("durable: checkpoint: %w", err)
	}
	return len(s.enc), nil
}

// writeManifestLocked atomically replaces the manifest: snap without its
// columns, through a temp file and a rename.
func (s *Store) writeManifestLocked(snap *wire.Snapshot) (int, error) {
	m := *snap
	m.Columns = nil
	s.enc = wire.EncodeSnapshot(s.enc[:0], &m)
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

// dropCutsLocked deletes every cut file the committed manifest does not
// name. One that fails to go stays listed, for the next checkpoint.
func (s *Store) dropCutsLocked() {
	s.cuts = slices.DeleteFunc(s.cuts, func(gen uint64) bool {
		return !slices.ContainsFunc(s.live, func(l wire.SnapLive) bool { return l.Cut == gen }) &&
			s.remove(s.cutPath(gen)) == nil
	})
}

// Heal re-enters durable mode after a degraded spell: the log rotates to a
// fresh generation and snap (a full cut) is checkpointed, so the post-heal
// log starts from a clean, fully covered state. On failure the store is
// still usable, and the heal is best tried again later.
func (s *Store) Heal(snap *wire.Snapshot) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead {
		return s.deadErr
	}
	s.sealLocked()
	return s.checkpointLocked(snap)
}

// loadSnapLocked is the one snapshot loader, for the manifest and the cut
// files alike: nil when the file is missing, unreadable (then readable is
// false: its bytes may be intact, so it stays in place) or corrupt (then
// it is quarantined).
func (s *Store) loadSnapLocked(path string) (snap *wire.Snapshot, readable bool) {
	buf, err := s.readFile(path)
	if err != nil {
		if isMissing(err) {
			return nil, true
		}
		s.scrubErrs.Add(1)
		return nil, false
	}
	snap, err = wire.DecodeSnapshot(buf)
	if err != nil {
		s.quarantineLocked(path)
		return nil, true
	}
	return snap, true
}

// loadCheckpointLocked is recovery's checkpoint loader: the manifest,
// carrying the columns of the cut files it names (nil when no manifest
// survives). A corrupt manifest is quarantined and recovery proceeds from
// the WAL, the missing coverage surfacing as a leading LostLSNRange. Each
// cut file contributes only the columns the manifest assigns to it, whole:
// a column re-cut into a newer file (a standby's catch-up, the re-cut of a
// rotted file) is still in the older one, which the manifest may still
// name for its other columns. A cut file that cannot be loaded loses
// exactly its own sub-windows: each becomes a LostLSNRange of its own (no
// LSNs) and leaves the live list. Once the manifest is known, cut files it
// does not name — a crash's debris — are deleted.
func (s *Store) loadCheckpointLocked() *wire.Snapshot {
	s.live, s.cutFrom = s.live[:0], 0
	m, readable := s.loadSnapLocked(filepath.Join(s.dir, checkpointName))
	if !readable {
		return nil
	}
	if m != nil {
		var gens []uint64
		for _, l := range m.Live {
			if !slices.Contains(gens, l.Cut) {
				gens = append(gens, l.Cut)
			}
		}
		for _, gen := range gens {
			if cut, _ := s.loadSnapLocked(s.cutPath(gen)); cut != nil {
				for _, col := range cut.Columns {
					if slices.Contains(m.Live, wire.SnapLive{SW: col.SW, Cut: gen}) {
						m.Columns = append(m.Columns, col)
					}
				}
				continue
			}
			m.Live = slices.DeleteFunc(m.Live, func(l wire.SnapLive) bool {
				if l.Cut == gen {
					s.lost = append(s.lost, LostLSNRange{SWLow: l.SW, SWHigh: l.SW})
				}
				return l.Cut == gen
			})
		}
		s.live = append(s.live, m.Live...)
		if m.HasFinished {
			s.cutFrom = m.LastFinished + 1
		}
	}
	if s.writerTerm == s.curTerm {
		s.dropCutsLocked()
	}
	return m
}

// scrubCheckpointLocked verifies the manifest and one cut file it names,
// the one after the cut verified last (in generation order, wrapping):
// a cut file is verified within as many boundaries as there are live
// sub-windows, and no boundary reads back the whole table. A rotted
// manifest makes the next checkpoint a full one; a rotted cut file makes
// it carry that file's columns again, from the live state.
func (s *Store) scrubCheckpointLocked() (corrupt int, err error) {
	bad, rerr := s.verifyLocked(filepath.Join(s.dir, checkpointName))
	if rerr != nil {
		err = rerr
	} else if bad {
		corrupt++
		s.live, s.cutFrom = s.live[:0], 0
	}
	next, first := uint64(0), uint64(0)
	for _, l := range s.live {
		if first == 0 || l.Cut < first {
			first = l.Cut
		}
		if l.Cut > s.scrubbed && (next == 0 || l.Cut < next) {
			next = l.Cut
		}
	}
	if next == 0 {
		next = first
	}
	if s.scrubbed = next; next == 0 {
		return corrupt, err
	}
	if bad, rerr := s.verifyLocked(s.cutPath(next)); rerr != nil {
		err = rerr
	} else if bad {
		corrupt++
		s.live = slices.DeleteFunc(s.live, func(l wire.SnapLive) bool {
			if l.Cut == next {
				s.cutFrom = min(s.cutFrom, l.SW)
			}
			return l.Cut == next
		})
	}
	return corrupt, err
}

// verifyLocked checks a sealed file's seal (wire.VerifySnapshot, the
// decoder's first step) and quarantines it if the seal fails. Checking the
// seal is the whole check: decoding would allocate a row per flow. A
// missing file has nothing to verify; an unreadable one is a scrub error.
func (s *Store) verifyLocked(path string) (bad bool, err error) {
	buf, err := s.readFile(path)
	if isMissing(err) {
		return false, nil
	}
	if err != nil {
		s.scrubErrs.Add(1)
		return false, err
	}
	if wire.VerifySnapshot(buf) != nil {
		s.quarantineLocked(path)
		return true, nil
	}
	return false, nil
}
