package durable

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"omniwindow/internal/packet"
	"omniwindow/internal/wire"
)

// TestTermCASAndAdopt pins the acquisition protocol: CASTerm advances the
// authority without granting it (the acquirer's own writes fence until
// AdoptTerm), a conflicting CAS fails, and a fresh open resumes the
// persisted term.
func TestTermCASAndAdopt(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Term(); got != 0 {
		t.Fatalf("fresh store term = %d, want 0", got)
	}

	next, err := s.CASTerm(0, 1)
	if err != nil || next != 1 {
		t.Fatalf("CASTerm(0) = %d, %v; want 1, nil", next, err)
	}
	// Authority advanced, but nobody adopted it yet: every write fences.
	if err := s.AppendFinish(0); !errors.Is(err, ErrFenced) {
		t.Fatalf("write between CAS and adopt: %v, want ErrFenced", err)
	}
	if _, err := s.CASTerm(0, 2); !errors.Is(err, ErrTermConflict) {
		t.Fatal("stale CAS must conflict")
	}
	if err := s.AdoptTerm(0); !errors.Is(err, ErrTermConflict) {
		t.Fatal("adopting a stale term must conflict")
	}
	if err := s.AdoptTerm(1); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendFinish(0); err != nil {
		t.Fatalf("write after adopt: %v", err)
	}
	if got := s.FencedWrites(); got != 1 {
		t.Fatalf("FencedWrites = %d, want 1", got)
	}
	s.Close()

	// Reopen: the term file carries the authority across incarnations,
	// and the opener adopts it (explicit CAS is only for promotion).
	s2, err := OpenStore(dir, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.Term(); got != 1 {
		t.Fatalf("reopened term = %d, want 1", got)
	}
	if got := s2.writerTerm; got != 1 {
		t.Fatalf("reopened writer term = %d, want 1", got)
	}
	if err := s2.AppendFinish(1); err != nil {
		t.Fatal(err)
	}
	s2.Close()
}

// TestTermFencesAllMutations: between CAS and adoption every mutating
// operation is rejected — WAL appends of all types, checkpoints, heals,
// and scrubs (a fenced writer must not quarantine the new holder's
// files).
func TestTermFencesAllMutations(t *testing.T) {
	s, err := OpenStore(t.TempDir(), 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AppendBatch(0, 0, false, []packet.AFR{{Key: key(1), Attr: 5}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CASTerm(0, 1); err != nil {
		t.Fatal(err)
	}

	if err := s.AppendBatch(0, 1, false, []packet.AFR{{Key: key(2), Attr: 6}}); !errors.Is(err, ErrFenced) {
		t.Fatalf("AppendBatch: %v, want ErrFenced", err)
	}
	if err := s.AppendTrigger(1, 1); !errors.Is(err, ErrFenced) {
		t.Fatalf("AppendTrigger: %v, want ErrFenced", err)
	}
	if err := s.AppendFinish(1); !errors.Is(err, ErrFenced) {
		t.Fatalf("AppendFinish: %v, want ErrFenced", err)
	}
	if err := s.AppendShed(1, 2); !errors.Is(err, ErrFenced) {
		t.Fatalf("AppendShed: %v, want ErrFenced", err)
	}
	if err := s.Checkpoint(&wire.Snapshot{}); !errors.Is(err, ErrFenced) {
		t.Fatalf("Checkpoint: %v, want ErrFenced", err)
	}
	if err := s.Heal(&wire.Snapshot{}); !errors.Is(err, ErrFenced) {
		t.Fatalf("Heal: %v, want ErrFenced", err)
	}
	if _, err := s.Scrub(); !errors.Is(err, ErrFenced) {
		t.Fatalf("Scrub: %v, want ErrFenced", err)
	}
	if got := s.FencedWrites(); got != 6 {
		t.Fatalf("FencedWrites = %d, want 6 (scrub rejects without counting)", got)
	}

	// The pre-fence frame is still durable and replayable.
	if _, recs, err := s.Recover(); err != nil || len(recs) != 1 {
		t.Fatalf("recover: %d recs, %v; want 1, nil", len(recs), err)
	}
	s.Close()
}

// TestTermStampsFramesSegmentsAndCheckpoints: the writer's term rides on
// every WAL frame, every segment header, and every checkpoint — so the
// fencing history is reconstructible from the log alone.
func TestTermStampsFramesSegmentsAndCheckpoints(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cas := func(expect uint64) {
		t.Helper()
		next, err := s.CASTerm(expect, uint32(expect+1))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.AdoptTerm(next); err != nil {
			t.Fatal(err)
		}
	}

	cas(0) // term 1
	if err := s.AppendFinish(0); err != nil {
		t.Fatal(err)
	}
	cas(1) // term 2: adoption seals the log, next frame opens a term-2 segment
	if err := s.AppendFinish(1); err != nil {
		t.Fatal(err)
	}

	_, recs, err := s.Recover()
	if err != nil {
		t.Fatal(err)
	}
	wantTerms := []uint64{1, 2}
	if len(recs) != len(wantTerms) {
		t.Fatalf("got %d records, want %d", len(recs), len(wantTerms))
	}
	for i, r := range recs {
		if r.Term != wantTerms[i] {
			t.Fatalf("record %d has term %d, want %d", i, r.Term, wantTerms[i])
		}
	}

	// Segment headers carry the terms of their writers.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	segTerms := map[uint64]int{}
	for _, e := range entries {
		if _, ok := parseGen(e.Name()); !ok {
			continue
		}
		buf, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		hdr, err := wire.DecodeSegmentHeader(buf)
		if err != nil {
			t.Fatal(err)
		}
		segTerms[hdr.Term]++
	}
	if segTerms[1] == 0 || segTerms[2] == 0 {
		t.Fatalf("segment terms %v, want headers under both term 1 and term 2", segTerms)
	}

	// The checkpoint is stamped with the cutting writer's term.
	if err := s.Checkpoint(&wire.Snapshot{}); err != nil {
		t.Fatal(err)
	}
	snap, _, err := s.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Term != 2 {
		t.Fatalf("checkpoint term = %d, want 2", snap.Term)
	}
	s.Close()
}

// TestTermFileCorruptionRebuiltFromSegments: a damaged term file is
// quarantined and the authority rebuilt from the newest segment-header
// term — damage can delay fencing's bookkeeping, never roll authority
// backward past what the log proves.
func TestTermFileCorruptionRebuiltFromSegments(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	next, err := s.CASTerm(0, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AdoptTerm(next); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendFinish(0); err != nil { // opens a term-1 segment
		t.Fatal(err)
	}
	s.Close()

	// Rot the term file.
	path := filepath.Join(dir, termName)
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)/2] ^= 0x20
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenStore(dir, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.Term(); got != 1 {
		t.Fatalf("rebuilt term = %d, want 1 (from segment headers)", got)
	}
	if got := s2.Quarantined(); got != 1 {
		t.Fatalf("quarantined = %d, want 1 (the rotted term file)", got)
	}
	if _, err := os.Stat(path + quarantineSuffix); err != nil {
		t.Fatalf("rotted term file not set aside: %v", err)
	}
	// A new CAS re-establishes the file past the rebuilt authority.
	if next, err := s2.CASTerm(1, 8); err != nil || next != 2 {
		t.Fatalf("CAS after rebuild = %d, %v; want 2, nil", next, err)
	}
	s2.Close()
}
