// Fencing terms. The store's directory is a shared resource two
// controllers race over during a network partition: a zombie primary
// (alive, but its lease renewals aren't landing) keeps appending while
// the standby promotes. The term file is the arbiter — a monotonic
// counter (wire.TermRecord, CRC-sealed, temp+rename atomic) that a
// promoting standby advances by compare-and-swap. Writing authority is
// the pair (writerTerm == curTerm): CASTerm advances curTerm without
// touching writerTerm, so from that instant every write by the old
// holder returns ErrFenced until the winner adopts the new term. The
// term rides on every WAL frame, every segment header, and every
// checkpoint snapshot, making the fencing history itself durable: a
// legitimate log is non-decreasing in term along LSN order, and a
// damaged term file is rebuilt from the newest segment-header term
// rather than silently granting a stale writer authority.
package durable

import (
	"errors"
	"fmt"
	"path/filepath"

	"omniwindow/internal/wire"
)

// ErrFenced is returned by mutating store operations when the writer's
// term is stale: another controller has acquired a newer term (CASTerm)
// since this writer last adopted one. A fenced writer must stop — its
// view of the log is no longer authoritative.
var ErrFenced = errors.New("durable: fenced: stale writer term")

// ErrTermConflict is returned by CASTerm when the expected term does not
// match the current one — another writer won the race.
var ErrTermConflict = errors.New("durable: term compare-and-swap conflict")

const (
	termName = "term.ow"
	termTemp = "term.ow.tmp"
)

// loadTermLocked establishes fencing authority at open: the term file if
// it decodes, rebuilt from the newest segment-header term when the file
// is damaged (quarantined) or missing. The opener adopts the loaded term
// — promotion CAS is always an explicit, separate step.
func (s *Store) loadTermLocked(maxSegTerm uint64) {
	cur := maxSegTerm
	path := filepath.Join(s.dir, termName)
	buf, err := s.readFile(path)
	switch {
	case isMissing(err):
		// No file yet: authority is whatever the segments prove.
	case err != nil:
		// Unreadable but possibly intact; leave it for the next open.
		s.scrubErrs.Add(1)
	default:
		rec, derr := wire.DecodeTermRecord(buf)
		if derr != nil {
			s.quarantineLocked(path)
		} else if rec.Term > cur {
			cur = rec.Term
			s.holder = rec.Holder
		}
	}
	s.curTerm = cur
	s.writerTerm = cur
}

// writeTermLocked persists the term file atomically (temp write + rename,
// both with transient-fault retries through the FS seam).
func (s *Store) writeTermLocked(rec *wire.TermRecord) error {
	s.hdr = wire.AppendTermRecord(s.hdr[:0], rec)
	tmp := filepath.Join(s.dir, termTemp)
	if err := s.writeFile(tmp, s.hdr); err != nil {
		return fmt.Errorf("durable: term: %w", err)
	}
	if err := s.rename(tmp, filepath.Join(s.dir, termName)); err != nil {
		return fmt.Errorf("durable: term: %w", err)
	}
	return nil
}

// Term returns the current authoritative term (the newest acquired by any
// writer); 0 means fencing was never engaged.
func (s *Store) Term() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.curTerm
}

// FencedWrites returns how many mutating operations were rejected with
// ErrFenced.
func (s *Store) FencedWrites() int64 { return s.fenced.Load() }

// CASTerm acquires the next term by compare-and-swap: it fails with
// ErrTermConflict unless expect matches the current term, then durably
// advances the term file to expect+1 before updating the in-memory
// authority. The caller's own writes are fenced too until it adopts the
// new term (AdoptTerm) — acquisition and adoption are separate so a
// promotion that dies in between leaves the store refusing *all* stale
// writers, never trusting a half-promoted one.
func (s *Store) CASTerm(expect uint64, holder uint32) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead {
		return 0, s.deadErr
	}
	if expect != s.curTerm {
		return 0, fmt.Errorf("durable: term %d, expected %d: %w", s.curTerm, expect, ErrTermConflict)
	}
	next := expect + 1
	if err := s.writeTermLocked(&wire.TermRecord{Term: next, Holder: holder}); err != nil {
		return 0, err
	}
	s.curTerm = next
	s.holder = holder
	return next, nil
}

// AdoptTerm makes this handle write under term t, which must be the
// current authoritative term (the caller just won it via CASTerm). The
// active segment seals, so the new term's first append opens a fresh one
// whose header carries it: segment rotation records the handover durably.
// Nothing is re-logged: the new writer's controller is the fold of the
// log it adopts, so the log already holds its columns.
func (s *Store) AdoptTerm(t uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead {
		return s.deadErr
	}
	if t != s.curTerm {
		return fmt.Errorf("durable: cannot adopt term %d, current is %d: %w", t, s.curTerm, ErrTermConflict)
	}
	if s.writerTerm != t {
		s.writerTerm = t
		s.sealLocked()
	}
	return nil
}
